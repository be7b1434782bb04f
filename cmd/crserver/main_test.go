package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestRunFinishesInFlightUploadBeforeReturning cancels run while an
// upload's body is still being sent. The upload must complete with its
// 201, and run must return nil only after it has: a process exits when
// run returns, so anything still in flight then is cut off.
func TestRunFinishesInFlightUploadBeforeReturning(t *testing.T) {
	dir := t.TempDir()
	stored := filepath.Join(dir, "datasets", "mine.snap")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdoutR, stdoutW := io.Pipe()
	type outcome struct {
		err          error
		storedBefore bool // the upload's snapshot existed when run returned
	}
	done := make(chan outcome, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-data", dir,
			"-workers", "1", "-prewarm=false"}, stdoutW)
		_, statErr := os.Stat(stored)
		stdoutW.Close()
		done <- outcome{err, statErr == nil}
	}()

	// "cyclerank demo listening on <addr> (...)"
	line, err := bufio.NewReader(stdoutR).ReadString('\n')
	if err != nil {
		t.Fatalf("no listening line (%v); run: %v", err, (<-done).err)
	}
	fields := strings.Fields(line)
	if len(fields) < 5 {
		t.Fatalf("listening line %q", line)
	}
	conn, err := net.Dial("tcp", fields[4])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// Send the headers only. The server answers 100 Continue when the
	// handler starts reading the body, so after it the upload is in
	// flight.
	body := "x,y\ny,x\ny,z\nz,y\nz,x\nx,z\nz,w\n"
	fmt.Fprintf(conn, "POST /api/datasets/mine HTTP/1.1\r\nHost: crserver\r\n"+
		"Content-Type: text/plain\r\nContent-Length: %d\r\nExpect: 100-continue\r\n\r\n", len(body))
	req := &http.Request{Method: http.MethodPost}
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusContinue {
		t.Fatalf("status %d before the body, want 100", resp.StatusCode)
	}

	cancel()
	if _, err := io.WriteString(conn, body); err != nil {
		t.Fatal(err)
	}
	resp, err = http.ReadResponse(br, req)
	if err != nil {
		t.Fatalf("upload cut off by shutdown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d, want 201", resp.StatusCode)
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("run: %v", out.err)
	}
	if !out.storedBefore {
		t.Error("run returned before the in-flight upload was stored")
	}
}

// TestServerFlagsDocumented holds docs/API.md's "Server flags" table
// equal to crserver's flag set, in both directions.
func TestServerFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### Server flags\n")
	if !ok {
		t.Fatal(`docs/API.md has no "### Server flags" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	flagName := regexp.MustCompile("`-([a-z0-9-]+)`")
	documented := make(map[string]bool)
	for _, row := range strings.Split(section, "\n") {
		cells := strings.Split(row, "|")
		if !strings.HasPrefix(row, "|") || len(cells) < 3 {
			continue
		}
		for _, m := range flagName.FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
		}
	}

	defined := make(map[string]bool)
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) { defined[f.Name] = true })

	var missing, stale []string
	for name := range defined {
		if !documented[name] {
			missing = append(missing, "-"+name)
		}
	}
	for name := range documented {
		if !defined[name] {
			stale = append(stale, "-"+name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("flags missing from docs/API.md's Server flags table: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("docs/API.md's Server flags table documents flags crserver lacks: %v", stale)
	}
}
