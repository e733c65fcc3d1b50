package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gncg/internal/sweep"
)

func testResolve(t *testing.T) func(spec string, quick bool) ([]sweep.Experiment, error) {
	return func(spec string, quick bool) ([]sweep.Experiment, error) {
		if spec != testSpec {
			return nil, fmt.Errorf("unexpected spec %q", spec)
		}
		return testExps(), nil
	}
}

// startService opens (or resumes) a store in dir and brings up a
// coordinator + server on a random loopback port.
func startService(t *testing.T, dir string, resume bool, opts Options) (*Store, *Coordinator, *Server, string) {
	t.Helper()
	exps := testExps()
	spec := SpecFor(testSpec, false, exps)
	store, err := Open(dir, spec, resume)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(store, sweep.Enumerate(exps, false), opts)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	srv := NewServer(co)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	return store, co, srv, addr
}

// TestWorkStealingFullRun: several workers drain the job through the
// lease protocol; the assembled store is byte-identical to an unsharded
// in-process run.
func TestWorkStealingFullRun(t *testing.T) {
	_, refJSON := refRun(t, testExps())
	dir := t.TempDir()
	store, co, srv, addr := startService(t, dir, false, Options{})
	defer store.Close()
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(addr, WorkerOptions{
				Name: fmt.Sprintf("shard-%d", i), Workers: 2, Resolve: testResolve(t),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("all workers exited but the coordinator is not done")
	}
	rs, err := store.Results()
	if err != nil {
		t.Fatal(err)
	}
	if encodeSet(t, rs) != refJSON {
		t.Fatal("work-stealing run differs from unsharded run")
	}
	st := co.Status()
	if st.State != "done" || st.Progress.Done != st.Job.Cells || st.Progress.Pending != 0 {
		t.Fatalf("final status %+v", st)
	}
}

// TestAbandonedLeaseStolen is the SIGKILLed-shard scenario driven
// deterministically: a raw client takes a lease and vanishes (no
// heartbeat, no report — exactly what SIGKILL leaves behind). The lease
// must expire, its cells must be re-issued to the live worker, and the
// final output must be byte-identical anyway.
func TestAbandonedLeaseStolen(t *testing.T) {
	_, refJSON := refRun(t, testExps())
	dir := t.TempDir()
	store, co, srv, addr := startService(t, dir, false, Options{LeaseTTL: 150 * time.Millisecond})
	defer store.Close()
	defer srv.Close()

	// The doomed shard grabs a batch and dies.
	cl := &client{base: "http://" + addr, hc: http.DefaultClient}
	var lr leaseResponse
	if err := cl.call("POST", "/lease", leaseRequest{Shard: "doomed", Max: 4}, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Cells) == 0 || lr.Done {
		t.Fatalf("doomed shard got no work: %+v", lr)
	}

	if err := RunWorker(addr, WorkerOptions{Name: "survivor", Resolve: testResolve(t)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-co.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job did not complete after lease expiry")
	}
	rs, err := store.Results()
	if err != nil {
		t.Fatal(err)
	}
	if encodeSet(t, rs) != refJSON {
		t.Fatal("post-steal output differs from unsharded run")
	}
	st := co.Status()
	if st.Steals < 1 || st.CellsStolen < int64(len(lr.Cells)) {
		t.Fatalf("expected a recorded steal of %d cells, status %+v", len(lr.Cells), st)
	}
}

// TestLateReportAfterStealDeduplicates: the "dead" shard turns out to be
// alive and reports after its lease expired and the work was redone.
// The duplicate bytes must be absorbed without error or double-count.
func TestLateReportAfterStealDeduplicates(t *testing.T) {
	ref, refJSON := refRun(t, testExps())
	dir := t.TempDir()
	store, co, srv, addr := startService(t, dir, false, Options{LeaseTTL: 100 * time.Millisecond})
	defer store.Close()
	defer srv.Close()

	cl := &client{base: "http://" + addr, hc: http.DefaultClient}
	var lr leaseResponse
	if err := cl.call("POST", "/lease", leaseRequest{Shard: "slow", Max: 3}, &lr); err != nil {
		t.Fatal(err)
	}
	if err := RunWorker(addr, WorkerOptions{Name: "fast", Resolve: testResolve(t)}); err != nil {
		t.Fatal(err)
	}
	<-co.Done()

	// The slow shard finally reports the (identical, deterministic) cells.
	req := reportRequest{ID: lr.ID, Shard: "slow"}
	for _, seq := range lr.Cells {
		req.Cells = append(req.Cells, json.RawMessage(sweep.CellJSON(ref.Cells[seq])))
	}
	var ok heartbeatResponse
	if err := cl.call("POST", "/report", req, &ok); err != nil {
		t.Fatalf("late report rejected: %v", err)
	}
	rs, err := store.Results()
	if err != nil {
		t.Fatal(err)
	}
	if encodeSet(t, rs) != refJSON {
		t.Fatal("late duplicate report corrupted the store")
	}
}

// TestCoordinatorCrashResume: stage partial progress, tear the whole
// service down (server + store, as a coordinator crash would), then
// resume from the journal and finish. The merged output must be
// byte-identical to the uninterrupted run and nothing is recomputed that
// the journal already holds.
func TestCoordinatorCrashResume(t *testing.T) {
	_, refJSON := refRun(t, testExps())
	dir := t.TempDir()
	store, _, srv, addr := startService(t, dir, false, Options{Batch: 4})

	// One worker, one lease, then everything stops.
	if err := RunWorker(addr, WorkerOptions{
		Name: "shard-0", Resolve: testResolve(t), MaxLeases: 1, Batch: 4,
	}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	doneBefore := store.CountDone()
	if doneBefore == 0 || doneBefore >= SpecFor(testSpec, false, testExps()).Cells {
		t.Fatalf("staged progress = %d cells, want partial", doneBefore)
	}
	store.Close()

	// Resume: the new coordinator must only queue the remainder.
	store2, co2, srv2, addr2 := startService(t, dir, true, Options{})
	defer store2.Close()
	defer srv2.Close()
	if got := store2.CountDone(); got != doneBefore {
		t.Fatalf("resume lost progress: %d done, had %d", got, doneBefore)
	}
	st := co2.Status()
	if st.Progress.Pending != st.Job.Cells-doneBefore {
		t.Fatalf("resumed pending = %d, want %d", st.Progress.Pending, st.Job.Cells-doneBefore)
	}
	if err := RunWorker(addr2, WorkerOptions{Name: "shard-1", Resolve: testResolve(t)}); err != nil {
		t.Fatal(err)
	}
	<-co2.Done()
	rs, err := store2.Results()
	if err != nil {
		t.Fatal(err)
	}
	if encodeSet(t, rs) != refJSON {
		t.Fatal("crash/resume output differs from uninterrupted run")
	}
}

// TestStatusAndResultsEndpoints exercises the observability surface over
// real HTTP mid-run and post-run.
func TestStatusAndResultsEndpoints(t *testing.T) {
	dir := t.TempDir()
	store, co, srv, addr := startService(t, dir, false, Options{Batch: 5})
	defer store.Close()
	defer srv.Close()

	// Stage partial progress so /status shows a genuinely running job.
	if err := RunWorker(addr, WorkerOptions{
		Name: "shard-0", Resolve: testResolve(t), MaxLeases: 1, Batch: 5,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "running" || st.Job.Cells == 0 || st.Progress.Done == 0 ||
		st.Progress.Done+st.Progress.Leased+st.Progress.Pending != st.Job.Cells {
		t.Fatalf("mid-run status: %+v", st)
	}
	if len(st.Experiments) != 2 || st.Experiments[0].Name != "grid" {
		t.Fatalf("experiment progress: %+v", st.Experiments)
	}
	if len(st.Shards) != 1 || st.Shards[0].Name != "shard-0" || !st.Shards[0].Alive {
		t.Fatalf("shard liveness: %+v", st.Shards)
	}

	// /results mid-run: a valid canonical partial set.
	resp, err = http.Get("http://" + addr + "/results")
	if err != nil {
		t.Fatal(err)
	}
	partial, err := sweep.DecodeJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.Cells) != st.Progress.Done {
		t.Fatalf("/results has %d cells, status says %d done", len(partial.Cells), st.Progress.Done)
	}

	if err := RunWorker(addr, WorkerOptions{Name: "shard-0", Resolve: testResolve(t)}); err != nil {
		t.Fatal(err)
	}
	<-co.Done()

	// /shutdown flips the linger signal.
	resp, err = http.Post("http://"+addr+"/shutdown", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(time.Second):
		t.Fatal("shutdown request not signalled")
	}
}

// TestWorkerEnumerationMismatch: a worker whose binary enumerates a
// different cell space must refuse to participate.
func TestWorkerEnumerationMismatch(t *testing.T) {
	dir := t.TempDir()
	store, _, srv, addr := startService(t, dir, false, Options{})
	defer store.Close()
	defer srv.Close()
	err := RunWorker(addr, WorkerOptions{
		Name: "skewed",
		Resolve: func(spec string, quick bool) ([]sweep.Experiment, error) {
			return testExps()[:1], nil // missing an experiment
		},
	})
	if err == nil {
		t.Fatal("worker with mismatched enumeration was admitted")
	}
}

// TestServerRejectsBadBodies: an oversize, malformed or trailing-garbage
// /lease or /report body gets a 4xx and leaves the store and the
// scheduler exactly as they were; the same report sent clean is then
// accepted, so the rejections are about the framing alone.
func TestServerRejectsBadBodies(t *testing.T) {
	ref, _ := refRun(t, testExps())
	dir := t.TempDir()
	store, co, srv, addr := startService(t, dir, false, Options{})
	defer store.Close()
	defer srv.Close()

	cl := &client{base: "http://" + addr, hc: http.DefaultClient}
	var lr leaseResponse
	if err := cl.call("POST", "/lease", leaseRequest{Shard: "s", Max: 2}, &lr); err != nil {
		t.Fatal(err)
	}
	req := reportRequest{ID: lr.ID, Shard: "s"}
	for _, seq := range lr.Cells {
		req.Cells = append(req.Cells, json.RawMessage(sweep.CellJSON(ref.Cells[seq])))
	}
	report, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	before := co.Status()
	huge := []byte(`{"id": 1, "shard": "` + strings.Repeat("x", maxRequestBytes) + `", "cells": []}`)
	for _, bad := range []struct {
		path string
		body []byte
		want int
	}{
		{"/report", append(append([]byte(nil), report...), " {}"...), http.StatusBadRequest},
		{"/report", report[:len(report)-1], http.StatusBadRequest},
		{"/report", huge, http.StatusRequestEntityTooLarge},
		{"/lease", []byte(`{"shard": "t", "max": `), http.StatusBadRequest},
		{"/lease", []byte(`{"shard": "t", "max": 1} garbage`), http.StatusBadRequest},
		{"/lease", huge, http.StatusRequestEntityTooLarge},
	} {
		if got := post(bad.path, bad.body); got != bad.want {
			t.Errorf("%s with a %d-byte bad body: status %d, want %d", bad.path, len(bad.body), got, bad.want)
		}
		after := co.Status()
		if len(store.DoneSeqs()) != 0 || after.Progress != before.Progress || len(after.Leases) != len(before.Leases) {
			t.Fatalf("%s bad body changed the job: progress %+v -> %+v, leases %d -> %d, done %v",
				bad.path, before.Progress, after.Progress, len(before.Leases), len(after.Leases), store.DoneSeqs())
		}
	}
	if got := post("/report", report); got != http.StatusOK {
		t.Fatalf("clean report: status %d", got)
	}
	if done := store.DoneSeqs(); len(done) != len(lr.Cells) {
		t.Fatalf("clean report stored %v, want %v", done, lr.Cells)
	}
}
