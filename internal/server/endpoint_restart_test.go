package server

import (
	"net/http"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/task"
)

// TestEndpointPersistenceAcrossServerRestart is the acceptance
// integration test for persisted walk-endpoint recordings: a
// walk-reuse pair query asked twice before a restart leaves both its
// reverse-push index AND its source's recorded walk pass on disk (the
// first ask leaves neither); the restarted
// server serves the same query entirely from the disk tiers — zero
// reverse pushes, zero fresh walk passes, stats-verified — and
// returns scores bit-identical to the pre-restart query.
func TestEndpointPersistenceAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	submit := `{"dataset": "complete-50", "algorithm": "bippr-pair",
		"queries": [{"params": {"source": "2", "target": "7", "walks": 512, "walk_reuse": true}}]}`

	s1, ts1 := newPersistentServer(t, dir)
	var before taskView
	var st1 statusResponse
	for touch := 1; touch <= 2; touch++ {
		out, status := postTasks(t, ts1.URL, submit)
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d", status)
		}
		before = waitTask(t, ts1.URL, out.TaskIDs[0])
		if before.Task.State != task.StateDone {
			t.Fatalf("pre-restart task %s (%s)", before.Task.State, before.Task.Error)
		}
		getJSON(t, ts1.URL+"/api/status", &st1)
		if touch == 1 && (st1.EndpointCache.DiskWrites != 0 || st1.IndexStore.DiskWrites != 0) {
			t.Fatalf("artifacts persisted on their first touch: %+v / %+v", st1.EndpointCache, st1.IndexStore)
		}
	}
	if st1.EndpointCache.Misses != 1 || st1.EndpointCache.DiskWrites != 1 {
		t.Fatalf("pre-restart endpoint stats %+v, want one recorded pass and one persisted artifact",
			st1.EndpointCache)
	}
	ts1.Close()
	s1.Close()

	// Restart: fresh server process over the same datastore.
	_, ts2 := newPersistentServer(t, dir)
	out2, status := postTasks(t, ts2.URL, submit)
	if status != http.StatusAccepted {
		t.Fatalf("post-restart submit status %d", status)
	}
	after := waitTask(t, ts2.URL, out2.TaskIDs[0])
	if after.Task.State != task.StateDone {
		t.Fatalf("post-restart task %s (%s)", after.Task.State, after.Task.Error)
	}

	var st2 statusResponse
	getJSON(t, ts2.URL+"/api/status", &st2)
	// Zero fresh walk passes: the recording came off disk.
	if st2.EndpointCache.DiskHits != 1 {
		t.Errorf("post-restart endpoint disk hits = %d, want 1", st2.EndpointCache.DiskHits)
	}
	if st2.EndpointCache.Misses != 0 {
		t.Errorf("post-restart endpoint misses = %d, want 0 (no fresh walk pass after restart)",
			st2.EndpointCache.Misses)
	}
	if st2.EndpointCache.WalksAvoided != 512 {
		t.Errorf("walks avoided = %d, want 512", st2.EndpointCache.WalksAvoided)
	}
	// And the index side stayed warm too: the whole pair query paid
	// only deserialization.
	if st2.IndexStore.Misses != 0 || st2.IndexStore.DiskHits != 1 {
		t.Errorf("post-restart index stats %+v, want one disk hit and no pushes", st2.IndexStore)
	}
	if st2.EndpointCache.DiskFiles < 1 || st2.EndpointCache.DiskBytes <= 0 {
		t.Errorf("post-restart endpoint disk usage (%d files, %d bytes), want the artifact visible",
			st2.EndpointCache.DiskFiles, st2.EndpointCache.DiskBytes)
	}

	// Bit-identical scores from the restored recording.
	if len(before.Result.Queries) != 1 || len(after.Result.Queries) != 1 {
		t.Fatal("missing subresults")
	}
	b, a := before.Result.Queries[0], after.Result.Queries[0]
	if len(b.Top) != len(a.Top) || len(b.Top) == 0 {
		t.Fatalf("top sizes differ or empty: %d vs %d", len(b.Top), len(a.Top))
	}
	for i := range b.Top {
		if b.Top[i] != a.Top[i] {
			t.Errorf("top[%d] differs after restart: %+v vs %+v", i, b.Top[i], a.Top[i])
		}
	}
}
