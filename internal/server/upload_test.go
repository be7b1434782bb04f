package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// upload posts a dataset body and returns the response status.
func upload(t *testing.T, url, name, body string) int {
	t.Helper()
	resp, err := http.Post(url+"/api/datasets/"+name, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestUploadAdoptionEquivalence: the first tasks on a fresh upload run
// on the graph the upload built — no graph load is counted — and their
// result documents are byte-identical, ids and timings dropped, to the
// same tasks run after a restart has re-read the stored files. One case
// per upload format.
func TestUploadAdoptionEquivalence(t *testing.T) {
	cases := []struct {
		format, body, source string
	}{
		{"edgelist", "x,y\ny,x\ny,z\nz,y\nz,x\nx,z\nz,w\n", "x"},
		{"pajek", "*Vertices 4\n1 \"x\"\n2 \"y\"\n3 \"z\"\n4 \"w\"\n*Arcs\n1 2\n2 1\n2 3\n3 2\n3 1\n1 3\n3 4\n", "x"},
		{"asd", "4 7\n0 1\n1 0\n1 2\n2 1\n2 0\n0 2\n2 3\n", "0"},
	}
	for _, c := range cases {
		t.Run(c.format, func(t *testing.T) {
			dir := t.TempDir()
			name := "adopt-" + c.format
			submit := fmt.Sprintf(`{"tasks": [
				{"dataset": %q, "algorithm": "cyclerank", "params": {"source": %q}},
				{"dataset": %q, "algorithm": "ppr", "params": {"source": %q}}]}`,
				name, c.source, name, c.source)

			s1, ts1 := newPersistentServer(t, dir)
			if status := upload(t, ts1.URL, name+"?format="+c.format, c.body); status != http.StatusCreated {
				t.Fatalf("upload status %d", status)
			}
			loads := s1.Scheduler().AdmissionStats().GraphLoads
			adopted := runDocs(t, ts1.URL, submit)
			if got := s1.Scheduler().AdmissionStats().GraphLoads; got != loads {
				t.Fatalf("cyclerank_scheduler_graph_loads_total moved %d -> %d for the first tasks on an upload", loads, got)
			}
			ts1.Close()
			s1.Close()

			_, ts2 := newPersistentServer(t, dir)
			reread := runDocs(t, ts2.URL, submit)
			for i := range adopted {
				if adopted[i] != reread[i] {
					t.Errorf("task %d: result on the adopted graph differs from the one after a restart\nadopted: %s\nreread:  %s",
						i, adopted[i], reread[i])
				}
			}
		})
	}
}

// TestUploadBitIdentical: an upload persists the snapshot bytes, and
// answers the 201 stats document, of formats.Parse plus ComputeStats
// run one after the other, although the server computes the stats
// beside the save on a graph whose label table it adopted from the
// parse's builder. The body has BenchmarkUpload's shape: 5,000 labeled
// nodes, each with one reciprocated edge and six more random out-edges.
func TestUploadBitIdentical(t *testing.T) {
	const nodes, out = 5000, 8
	rng := rand.New(rand.NewSource(1))
	var body bytes.Buffer
	edge := func(from, to int) {
		body.WriteString("n" + strconv.Itoa(from) + ",n" + strconv.Itoa(to) + "\n")
	}
	for u := 0; u < nodes; u++ {
		v := (u + 1 + rng.Intn(nodes-1)) % nodes
		edge(u, v)
		edge(v, u)
		for k := 2; k < out; k++ {
			edge(u, (u+1+rng.Intn(nodes-1))%nodes)
		}
	}

	want, err := formats.Parse(body.Bytes(), formats.FormatEdgeList)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SaveDataset("ref", want); err != nil {
		t.Fatal(err)
	}
	wantSnap, err := os.ReadFile(filepath.Join(ref.Root(), "datasets", "ref.snap"))
	if err != nil {
		t.Fatal(err)
	}
	wantDoc := httptest.NewRecorder()
	writeJSON(wantDoc, http.StatusCreated, datasetStats{Name: "big", Stats: graph.ComputeStats(want)})

	s, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/datasets/big", "text/csv", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, doc)
	}
	if !bytes.Equal(doc, wantDoc.Body.Bytes()) {
		t.Errorf("201 document differs from the serial one\n got: %s\nwant: %s", doc, wantDoc.Body)
	}
	snap, err := os.ReadFile(filepath.Join(s.store.Root(), "datasets", "big.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, wantSnap) {
		t.Errorf("persisted snapshot (%d bytes) differs from the serial one (%d bytes)", len(snap), len(wantSnap))
	}
}

// runDocs submits a query set, waits for every task and returns each
// result document as JSON with its ids and timings dropped.
func runDocs(t *testing.T, url, submit string) []string {
	t.Helper()
	out, status := postTasks(t, url, submit)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	var docs []string
	for _, id := range out.TaskIDs {
		view := waitTask(t, url, id)
		if view.Task.State != task.StateDone || view.Result == nil {
			t.Fatalf("task ended %s (%s)", view.Task.State, view.Task.Error)
		}
		doc := *view.Result
		doc.Task.ID, doc.Task.QuerySet = "", ""
		doc.Task.Submitted, doc.Task.Started, doc.Task.Finished = time.Time{}, time.Time{}, time.Time{}
		doc.Task.WaitMS, doc.Task.RunMS = 0, 0
		doc.Phases = nil
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(data))
	}
	return docs
}

// TestUploadDeleteRaceKeepsStoreAndCacheInStep races uploads of
// different graphs against deletes, all under one name. After every
// round the name is listed if and only if the store can load it, and
// when it is, the graph the scheduler hands tasks is the stored one;
// when it is not, the scheduler holds no graph for it.
func TestUploadDeleteRaceKeepsStoreAndCacheInStep(t *testing.T) {
	s, ts := newTestServer(t)
	const name = "contested"
	bodies := []string{"a,b\nb,a\n", "a,b\nb,c\nc,a\n", "p,q\nq,r\nr,s\ns,p\np,r\n"}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for _, body := range bodies {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if status := upload(t, ts.URL, name, body); status != http.StatusCreated {
					t.Errorf("upload status %d", status)
				}
			}()
			go func() {
				defer wg.Done()
				req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/datasets/"+name, nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
					t.Errorf("delete status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		listed := s.datasetExists(name)
		stored, err := s.store.LoadDataset(name)
		if listed != (err == nil) {
			t.Fatalf("round %d: listed=%v but LoadDataset error=%v", round, listed, err)
		}
		if !listed {
			for _, row := range s.Scheduler().LoadedGraphs() {
				if row.Name == name {
					t.Fatalf("round %d: deleted dataset still resident in the graph cache", round)
				}
			}
			continue
		}
		g, err := s.Scheduler().LoadGraph(name)
		if err != nil {
			t.Fatalf("round %d: listed dataset does not load: %v", round, err)
		}
		if graph.Fingerprint(g) != graph.Fingerprint(stored) || !slices.Equal(g.Labels().Names(), stored.Labels().Names()) {
			t.Fatalf("round %d: scheduler's graph (%d nodes, %v) is not the stored one (%d nodes, %v)",
				round, g.NumNodes(), g.Labels().Names(), stored.NumNodes(), stored.Labels().Names())
		}
	}
}

// TestUploadStorageFailureIs500: a store that cannot write is the
// server's fault, not the client's.
func TestUploadStorageFailureIs500(t *testing.T) {
	s, ts := newTestServer(t)
	dir := filepath.Join(s.store.Root(), "datasets")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status := upload(t, ts.URL, "fine", "a,b\nb,a\n"); status != http.StatusInternalServerError {
		t.Fatalf("upload into a broken store: status %d, want 500", status)
	}
	if s.datasetExists("fine") {
		t.Fatal("failed upload is listed")
	}
}

// bodyReads counts reads of a request body.
type bodyReads struct{ n int }

func (b *bodyReads) Read([]byte) (int, error) {
	b.n++
	return 0, io.EOF
}

// TestUploadInvalidNameRefusedBeforeBody: a name the store can never
// hold is a 400, answered before a byte of the body is read.
func TestUploadInvalidNameRefusedBeforeBody(t *testing.T) {
	s, _ := newTestServer(t)
	body := &bodyReads{}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/datasets/a..b", body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if body.n != 0 {
		t.Fatalf("body read %d times before the name was refused", body.n)
	}
}
