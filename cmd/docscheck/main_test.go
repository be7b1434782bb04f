package main

import (
	"os"
	"path/filepath"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckFile(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "exists.md", "target")
	md := write(t, dir, "doc.md", `# Doc
A [good link](exists.md) and an [anchored one](exists.md#section).
An [absolute](https://example.com/nowhere) link and [mail](mailto:x@y.z).
A pure [anchor](#heading).

`+"```sh\n"+`curl -s localhost:8080/api/tasks  # [not a](link.md)
`+"```\n"+`
A [broken link](missing.md) and ![broken image](missing.png).
`)
	broken, err := checkFile(md, nil)
	if err != nil {
		t.Fatal(err)
	}
	if broken != 2 {
		t.Errorf("broken = %d, want 2 (missing.md, missing.png)", broken)
	}
}

func TestCheckFileFenceMismatch(t *testing.T) {
	// Per CommonMark, a fence only closes on a bare run of the same
	// marker character, at least as long, with no info string. Neither
	// a ~~~ line nor a literal ```go line inside a ``` block closes
	// it, so the broken link after the real closing fence must still
	// be detected and the fenced pseudo-links must not be.
	dir := t.TempDir()
	for name, content := range map[string]string{
		"tilde.md": "```sh\n~~~\nstill [fenced](gone.md)\n```\n[broken](missing.md)\n",
		"info.md":  "````md\n```go\nstill [fenced](gone.md)\n```\n````\n[broken](missing.md)\n",
	} {
		md := write(t, dir, name, content)
		broken, err := checkFile(md, nil)
		if err != nil {
			t.Fatal(err)
		}
		if broken != 1 {
			t.Errorf("%s: broken = %d, want 1 (only the link outside the fence)", name, broken)
		}
	}
}

func TestCheckFileUnreadable(t *testing.T) {
	if _, err := checkFile(filepath.Join(t.TempDir(), "ghost.md"), nil); err == nil {
		t.Error("unreadable file reported no error")
	}
}

// TestCheckFileMakeTargets: a `make <target>` written as a command —
// in a fence, or opening an inline code span — must name a Makefile
// target; the verb in prose is not a command.
func TestCheckFileMakeTargets(t *testing.T) {
	dir := t.TempDir()
	mk := write(t, dir, "Makefile", "GO ?= go\nX := y\n.PHONY: build docs-check\nbuild:\n\t$(GO) build\ndocs-check: build\n")
	targets, err := makeTargets(mk)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || !targets["build"] || !targets["docs-check"] {
		t.Fatalf("targets = %v, want build and docs-check", targets)
	}
	for _, tc := range []struct {
		name, content string
		want          int
	}{
		{"known", "Run `make build`.\n```sh\nmake docs-check  # the gate\n```\n", 0},
		{"prose", "Sorted ids make deltas small; make sure of it.\n", 0},
		{"inline-gone", "Run `make gone` first.\n", 1},
		{"fenced-gone", "```sh\ngo run ./x  # (= make gone-too)\n```\n", 1},
	} {
		broken, err := checkFile(write(t, dir, tc.name+".md", tc.content), targets)
		if err != nil {
			t.Fatal(err)
		}
		if broken != tc.want {
			t.Errorf("%s: broken = %d, want %d", tc.name, broken, tc.want)
		}
	}
}

// TestRepositoryDocs runs the checker against the real repository
// docs, so `go test` fails on a broken link or a vanished make target
// even before make docs-check runs.
func TestRepositoryDocs(t *testing.T) {
	root := "../.."
	targets, err := makeTargets(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"README.md", "docs/ARCHITECTURE.md", "docs/API.md", ".claude/skills/verify/SKILL.md"} {
		path := filepath.Join(root, f)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("doc file missing: %v", err)
		}
		broken, err := checkFile(path, targets)
		if err != nil {
			t.Fatal(err)
		}
		if broken != 0 {
			t.Errorf("%s has %d broken link(s) or make target(s)", f, broken)
		}
	}
}
