// Command docscheck validates the repository's markdown documentation
// offline: every relative link target must exist on disk, and every
// `make <target>` the docs name must be a target of the Makefile. It
// is the `make docs-check` / CI gate that keeps README.md, docs/ and
// the verify skill from drifting as files and targets move.
//
// Usage (from the repository root, where the Makefile is):
//
//	docscheck README.md docs/*.md .claude/skills/verify/SKILL.md
//
// Checked: inline links and images `[text](target)` whose target is a
// relative path, resolved against the linking file's directory (any
// `#fragment` is stripped first). Skipped: absolute URLs
// (scheme://…), mailto:, pure in-page anchors (#…), and anything
// inside fenced code blocks — the fences hold example commands, not
// navigation. Make targets are read where commands are written: after
// the word `make` anywhere in a fenced block, and at the start of an
// inline code span outside one (prose such as "make sure" is not a
// command).
//
// Exit status is non-zero if any link is broken, any named make target
// is missing or any input file is unreadable, with one "file:line:"
// diagnostic per offence.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links and images: [text](target) /
// ![alt](target). Targets with spaces or nested parens are not used in
// this repository's docs.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// fenceRe captures a code-fence delimiter run (``` or ~~~ of any
// length ≥3, optionally indented) and whatever follows it (an info
// string on an opening fence; must be blank on a closing one).
var fenceRe = regexp.MustCompile("^\\s*(`{3,}|~{3,})(.*)$")

// fenceDelim returns the fence marker run opening or closing on this
// line ("" when the line is not a fence delimiter).
func fenceDelim(line string) string {
	m := fenceRe.FindStringSubmatch(line)
	if m == nil {
		return ""
	}
	return m[1]
}

// closesFence reports whether line closes a fence opened by the open
// marker run: per CommonMark the closing run must use the same
// character, be at least as long, and carry no info string (so a
// literal "```go" inside an open block does not close it).
func closesFence(open, line string) bool {
	m := fenceRe.FindStringSubmatch(line)
	if m == nil {
		return false
	}
	delim, rest := m[1], m[2]
	return delim[0] == open[0] && len(delim) >= len(open) && strings.TrimSpace(rest) == ""
}

// Make targets named in a fenced block, and in an inline code span.
var (
	fencedMakeRe = regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)
	inlineMakeRe = regexp.MustCompile("`make\\s+([a-z][a-z0-9-]*)")
)

// makeTargetRe matches a rule line of the Makefile ("name:" but not a
// "name := value" assignment; special targets such as .PHONY start
// with a dot and do not match).
var makeTargetRe = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+)\s*:(?:[^=]|$)`)

// makeTargets returns the targets the Makefile at path defines.
func makeTargets(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool)
	for _, m := range makeTargetRe.FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	return targets, nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docscheck <file.md> [file.md ...]")
		os.Exit(2)
	}
	targets, err := makeTargets("Makefile")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	broken, unreadable := 0, 0
	for _, path := range os.Args[1:] {
		n, err := checkFile(path, targets)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			unreadable++
			continue
		}
		broken += n
	}
	if broken > 0 || unreadable > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d broken link(s) or make target(s), %d unreadable file(s)\n", broken, unreadable)
		os.Exit(1)
	}
}

// checkFile reports the number of broken relative links and of named
// make targets missing from targets in one markdown file, printing a
// diagnostic per offence.
func checkFile(path string, targets map[string]bool) (broken int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	openFence := "" // marker run of the fence we are inside, if any
	for i, line := range strings.Split(string(data), "\n") {
		if delim := fenceDelim(line); delim != "" {
			switch {
			case openFence == "":
				openFence = delim
			case closesFence(openFence, line):
				openFence = ""
			}
			continue
		}
		makeRe := inlineMakeRe
		if openFence != "" {
			makeRe = fencedMakeRe
		}
		for _, m := range makeRe.FindAllStringSubmatch(line, -1) {
			if !targets[m[1]] {
				fmt.Fprintf(os.Stderr, "%s:%d: `make %s` is not a Makefile target\n", path, i+1, m[1])
				broken++
			}
		}
		if openFence != "" {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if skipTarget(target) {
				continue
			}
			if frag := strings.IndexByte(target, '#'); frag >= 0 {
				target = target[:frag]
				if target == "" {
					continue
				}
			}
			if _, statErr := os.Stat(filepath.Join(dir, target)); statErr != nil {
				fmt.Fprintf(os.Stderr, "%s:%d: broken link %q\n", path, i+1, m[1])
				broken++
			}
		}
	}
	return broken, nil
}

// skipTarget reports whether a link target is out of scope for an
// offline existence check.
func skipTarget(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}
