package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/ranking"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// Poll policy. There is no wait API, so how fast a client notices a
// terminal result is part of what it observes; the policy is fixed so
// runs stay comparable: poll immediately after the 202, then every
// pollFast for the first pollFastCount polls, then every pollSlow.
const (
	pollFast      = 250 * time.Microsecond
	pollFastCount = 20
	pollSlow      = time.Millisecond
	// opTimeout fails an operation whose result never turns terminal.
	opTimeout = 60 * time.Second
)

// pause blocks for d with the kernel's high-resolution timer.
// time.Sleep will not do: an otherwise idle Go process parks in
// epoll_wait, whose timeout counts whole milliseconds, so a 250 µs
// sleep returns after more than 1 ms and the poll schedule, not the
// server, would set every latency below that.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only polls sooner
}

// transport carries one HTTP exchange to the server under test and
// returns the status code and the fully read response body.
type transport interface {
	do(method, path string, body []byte) (int, []byte, error)
}

// httpTransport talks to a crserver subprocess over one keep-alive
// loopback connection.
type httpTransport struct {
	client *http.Client
	base   string
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   opTimeout,
	}
}

func (t httpTransport) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// compareView is the slice of GET /api/compare/{id} the client reads.
type compareView struct {
	Done  bool       `json:"done"`
	Tasks []taskView `json:"tasks"`
}

type taskView struct {
	Task struct {
		ID    string     `json:"id"`
		State task.State `json:"state"`
		Error string     `json:"error"`
	} `json:"task"`
	Result *struct {
		Top []ranking.Entry `json:"top"`
	} `json:"result"`
}

// terminal reports whether the view is the one an operation ends on:
// the set is done and every task's result is present. A task that
// ended in another state than done has no result; the set is then
// terminal too, and validation fails the operation.
func (v compareView) terminal() bool {
	if !v.Done {
		return false
	}
	for _, t := range v.Tasks {
		if t.Task.State == task.StateDone && t.Result == nil {
			return false
		}
	}
	return true
}

// statusError is a request the server answered with an unexpected
// status code.
type statusError struct {
	what string
	code int
	body []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s: status %d: %s", e.what, e.code, bytes.TrimSpace(e.body))
}

// opOutcome is what the client observed of one operation.
type opOutcome struct {
	start, end time.Time
	// submitRTT is how long the POST /api/tasks exchange took.
	submitRTT time.Duration
	polls     int
	// respBytes is the size of the terminal poll's response body.
	respBytes int
	view      compareView
}

// runOp performs one operation and returns what the client saw. The
// clock runs from just before the first request is sent until the
// terminal poll's body has been read and decoded. A non-nil error is
// a failed operation: a refused upload or submit, or a result that
// never turned terminal.
func runOp(t transport, o op, submit, uploadBody []byte) (opOutcome, error) {
	var out opOutcome
	out.start = time.Now()
	if o.Upload != nil {
		code, body, err := t.do(http.MethodPost, "/api/datasets/"+o.Upload.Name, uploadBody)
		if err != nil {
			return out, err
		}
		if code != http.StatusCreated {
			return out, &statusError{"upload " + o.Upload.Name, code, body}
		}
	}
	sent := time.Now()
	code, body, err := t.do(http.MethodPost, "/api/tasks", submit)
	out.submitRTT = time.Since(sent)
	if err != nil {
		return out, err
	}
	if code != http.StatusAccepted {
		return out, &statusError{"submit", code, body}
	}
	var accepted struct {
		ComparisonID string `json:"comparison_id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.ComparisonID == "" {
		return out, fmt.Errorf("submit: unreadable response %q: %v", body, err)
	}
	path := "/api/compare/" + accepted.ComparisonID
	for {
		code, body, err := t.do(http.MethodGet, path, nil)
		if err != nil {
			return out, err
		}
		if code != http.StatusOK {
			return out, &statusError{"poll", code, body}
		}
		out.polls++
		var view compareView
		if err := json.Unmarshal(body, &view); err != nil {
			return out, fmt.Errorf("poll: %w", err)
		}
		if view.terminal() {
			out.end = time.Now()
			out.view = view
			out.respBytes = len(body)
			return out, nil
		}
		if time.Since(out.start) > opTimeout {
			return out, fmt.Errorf("no terminal result after %s", opTimeout)
		}
		if out.polls <= pollFastCount {
			pause(pollFast)
		} else {
			pause(pollSlow)
		}
	}
}
