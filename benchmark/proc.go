package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of the utime/stime
// fields of /proc/<pid>/stat. It is 100 on every Linux port Go
// supports; reading it properly needs sysconf(3), i.e. cgo.
const clockTick = 100

// buildServer compiles cmd/crserver into dir and returns the binary's
// path. It runs before any timed section.
func buildServer(ctx context.Context, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "crserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/crserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building crserver: %w\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one booted crserver subprocess with its own fresh
// data directory.
type serverProc struct {
	cmd     *exec.Cmd
	client  *http.Client // the one keep-alive connection of the closed loop
	base    string       // http://127.0.0.1:<port>
	dataDir string
	logPath string
	log     *os.File
	exited  chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused loopback port by binding
// port 0 and releasing it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns crserver in its shipped configuration — only the
// deployment settings (address, data dir, worker count) are passed —
// over a fresh data directory under dataRoot. The caller must stop it.
func startServer(ctx context.Context, bin, dataRoot, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(dataRoot, "crdata-")
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.CommandContext(ctx, bin, "-addr", addr, "-data", dataDir, "-workers", "2")
	cmd.Stdout = log
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		log.Close()
		os.RemoveAll(dataDir)
		return nil, fmt.Errorf("starting crserver: %w", err)
	}
	s := &serverProc{cmd: cmd, client: newHTTPClient(), base: "http://" + addr, dataDir: dataDir, logPath: logPath, log: log,
		exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed process reports an error by design
		close(s.exited)
	}()
	return s, nil
}

// stop kills the subprocess, waits for it, and removes its data dir.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
	s.log.Close()
	os.RemoveAll(s.dataDir)
}

// transport returns the closed loop's connection to the server.
func (s *serverProc) transport() httpTransport {
	return httpTransport{client: s.client, base: s.base}
}

// echoLog copies the captured server output to w, for failure reports.
func (s *serverProc) echoLog(w io.Writer) {
	data, err := os.ReadFile(s.logPath)
	if err != nil || len(bytes.TrimSpace(data)) == 0 {
		return
	}
	fmt.Fprintf(w, "--- crserver output (%s) ---\n%s\n", s.logPath, data)
}

// serverStatus is the slice of GET /api/status the benchmark reads.
type serverStatus struct {
	Prewarm struct {
		State  string `json:"state"`
		Errors int    `json:"errors"`
	} `json:"prewarm"`
	Graphs []struct {
		Name string `json:"name"`
	} `json:"graphs"`
}

func (s *serverProc) status() (serverStatus, error) {
	var st serverStatus
	resp, err := s.client.Get(s.base + "/api/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /api/status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitReady blocks until the server answers and its startup pre-warm
// reports done.
func (s *serverProc) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := s.status()
		if err == nil && st.Prewarm.State == "done" {
			if st.Prewarm.Errors != 0 {
				return fmt.Errorf("pre-warm finished with %d errors", st.Prewarm.Errors)
			}
			return nil
		}
		select {
		case <-s.exited:
			return fmt.Errorf("crserver exited during start-up (last error: %v)", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("crserver not ready after 60s (last error: %v)", err)
		}
	}
}

// loaded reports whether every named dataset sits in the scheduler's
// graph cache.
func (s *serverProc) loaded(names []string) (bool, error) {
	st, err := s.status()
	if err != nil {
		return false, err
	}
	have := make(map[string]bool, len(st.Graphs))
	for _, g := range st.Graphs {
		have[g.Name] = true
	}
	for _, n := range names {
		if !have[n] {
			return false, nil
		}
	}
	return true, nil
}

// cpuSeconds returns the server's utime+stime.
func (s *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPUTicks(string(data))
	return float64(ticks) / clockTick, err
}

// peakRSSMB returns the server's VmHWM in MB.
func (s *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(data), "VmHWM")
	return float64(kb) / 1024, err
}

// parseStatCPUTicks extracts utime+stime (fields 14 and 15) from the
// text of /proc/<pid>/stat. The command name (field 2) is
// parenthesised and may itself contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPUTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so fields 14 and 15 are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB extracts a "<key>:   <n> kB" line from the text of
// /proc/<pid>/status.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// dirUsage sums the sizes of the regular files under dir and counts
// them.
func dirUsage(dir string) (bytes int64, files int, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files, err
}
