package server

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// serverGoroutines are the frames of the goroutines a Server starts:
// the scheduler's executors and the two background lifecycle loops.
// Each must have returned once every test has closed its server.
var serverGoroutines = []string{
	"task.(*Scheduler).executor(",
	"server.(*Server).runPrewarm(",
	"server.(*Server).runSweeper(",
}

// TestMain fails the package when a test leaves a server running: a
// leaked executor can still write into a temp dir its test is removing.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := leakedServerGoroutines(5 * time.Second); leaked != nil {
		fmt.Fprintf(os.Stderr, "server goroutines still running after the tests:\n\n%s\n",
			strings.Join(leaked, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// leakedServerGoroutines returns the stacks of the goroutines running a
// serverGoroutines frame. A goroutine a Close has released may need a
// moment to return, so it looks again until none is left or the wait
// is over.
func leakedServerGoroutines(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		var leaked []string
		for _, g := range strings.Split(allStacks(), "\n\n") {
			for _, frame := range serverGoroutines {
				if strings.Contains(g, frame) {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if leaked == nil || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// allStacks returns every goroutine's stack, separated by blank lines.
func allStacks() string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
