package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pepatags/internal/exp"
	"pepatags/internal/obsv"
	"pepatags/internal/sweep"
)

// tagSpec builds a small TAG sweep: one tagexp series with capacity k
// per queue, swept over the given timeout phase rates. All points
// share one model shape, so the spec has exactly one fresh shape on a
// cold cache.
func tagSpec(name string, k int, ts []float64) *sweep.Spec {
	return &sweep.Spec{
		Schema: sweep.SpecSchema,
		Name:   name,
		Groups: []sweep.Group{{
			Point: sweep.Point{
				Series: "tag", Model: "tagexp",
				Lambda: 5, N: 2, K1: k, K2: k,
				Service: sweep.ServiceSpec{Kind: "exp", Mu: 10},
			},
			Axes: []sweep.Axis{{Field: "t", Values: ts}},
		}},
		Figure: &sweep.FigureSpec{
			ID:     name,
			Title:  "W vs t",
			XLabel: "t",
			YLabel: "W",
			Series: []sweep.SeriesSpec{{Name: "TAG", From: "tag", Measure: "W"}},
		},
	}
}

func postJob(t *testing.T, url string, req SubmitRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, r io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func waitState(t *testing.T, url, id, want string) View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		v := decodeJSON[View](t, resp.Body)
		resp.Body.Close()
		if v.State == want {
			return v
		}
		if v.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return View{}
}

// TestAcceptanceEndToEnd is the issue's acceptance scenario against a
// real listening socket: submit a K=28 TAG sweep over HTTP, stream its
// sweep.point events via SSE, fetch the rendered table and compare it
// byte-for-byte with the tagseval -sweep pipeline (sweep.Run ->
// Assemble -> FigureFromTable -> Render) on a cold cache, then inject
// an overload and observe admission rejections with Retry-After.
func TestAcceptanceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{
		JobWorkers:     1,
		SolveWorkers:   2,
		AdmissionBound: 0.05, // seconds of estimated work: trips under a burst
		ManifestDir:    dir,
	})
	ts := httptest.NewServer(s.Handler()) // real TCP socket on 127.0.0.1
	defer ts.Close()
	defer s.Shutdown(context.Background())

	spec := tagSpec("accept-k28", 28, []float64{4, 8, 12, 16, 20, 24, 28, 32})

	// Submit.
	resp := postJob(t, ts.URL, SubmitRequest{Spec: spec})
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	sub := decodeJSON[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	if sub.Job.State != StateQueued && sub.Job.State != StateRunning {
		t.Fatalf("fresh job in state %q", sub.Job.State)
	}
	if sub.Job.Points != 8 || sub.Job.FreshShapes != 1 {
		t.Fatalf("job accounting: %d points, %d fresh shapes; want 8, 1", sub.Job.Points, sub.Job.FreshShapes)
	}
	id := sub.Job.ID

	// Stream the job's events via SSE from the beginning (?since=0).
	// The stream ends when the job log closes, i.e. when the job is
	// final.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events?since=0", nil)
	req.Header.Set("Accept", "text/event-stream")
	sseResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("SSE connect: %v", err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("SSE content type %q", ct)
	}
	points, done := 0, false
	scanner := bufio.NewScanner(sseResp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev obsv.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("SSE frame %q: %v", line, err)
		}
		switch ev.Kind {
		case "sweep.point":
			points++
		case "sweep.done":
			done = true
		case "sweep.error":
			t.Fatalf("sweep error event: %s", ev.Msg)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	if !done {
		t.Fatal("SSE stream ended without a sweep.done event")
	}
	if points != 8 {
		t.Errorf("streamed %d sweep.point events, want 8", points)
	}

	v := waitState(t, ts.URL, id, StateDone)
	if v.Result == nil || v.Result.Rows != 8 {
		t.Fatalf("done view carries no result: %+v", v)
	}
	if v.Result.CacheMisses != 1 || v.Result.CacheHits != 7 {
		t.Errorf("cache accounting: %d misses / %d hits, want 1 / 7", v.Result.CacheMisses, v.Result.CacheHits)
	}

	// The rendered table must be byte-identical to the CLI pipeline on
	// a fresh cache.
	got, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result?format=table")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	gotBytes, _ := io.ReadAll(got.Body)
	got.Body.Close()
	res, err := sweep.Run(spec, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	tbl, err := sweep.Assemble(spec, res)
	if err != nil {
		t.Fatalf("reference assemble: %v", err)
	}
	var want bytes.Buffer
	if err := exp.FigureFromTable(tbl).Render(&want); err != nil {
		t.Fatalf("reference render: %v", err)
	}
	if !bytes.Equal(gotBytes, want.Bytes()) {
		t.Errorf("served table differs from the CLI pipeline:\n--- served ---\n%s--- reference ---\n%s", gotBytes, want.Bytes())
	}

	// CSV route, same contract.
	gotCSV, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result?format=csv")
	if err != nil {
		t.Fatalf("GET csv: %v", err)
	}
	csvBytes, _ := io.ReadAll(gotCSV.Body)
	gotCSV.Body.Close()
	var wantCSV bytes.Buffer
	exp.FigureFromTable(tbl).CSV(&wantCSV)
	if !bytes.Equal(csvBytes, wantCSV.Bytes()) {
		t.Errorf("served CSV differs from the CLI pipeline")
	}

	// Rows route carries every journal row.
	gotRows, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET rows: %v", err)
	}
	rows := decodeJSON[struct {
		Rows []sweep.Row `json:"rows"`
	}](t, gotRows.Body)
	gotRows.Body.Close()
	if len(rows.Rows) != 8 {
		t.Errorf("rows format returned %d rows, want 8", len(rows.Rows))
	}

	// The job manifest validates and records the sweep.
	m, err := obsv.ReadManifest(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatalf("reading job manifest: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("job manifest invalid: %v", err)
	}
	if m.Tool != "pepad" || m.Sweep == nil || m.Sweep.Points != 8 {
		t.Errorf("manifest records tool=%q sweep=%+v", m.Tool, m.Sweep)
	}

	// Injected overload: burst submissions until admission control
	// trips. Each admitted job adds estimated work to the backlog;
	// with a 0.05 s bound the backlog exceeds the threshold within a
	// few admissions, long before the single-worker pool drains it.
	var rejected *http.Response
	for i := 0; i < 200 && rejected == nil; i++ {
		r := postJob(t, ts.URL, SubmitRequest{Spec: spec})
		if r.StatusCode == http.StatusTooManyRequests {
			rejected = r
			break
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: status %d", i, r.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("no admission rejection in a 200-submission burst over a 0.05s bound")
	}
	if ra := rejected.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 without a usable Retry-After header: %q", ra)
	}
	eb := decodeJSON[struct {
		Error             string  `json:"error"`
		RetryAfterSeconds float64 `json:"retry_after_seconds"`
		BacklogSeconds    float64 `json:"backlog_seconds"`
	}](t, rejected.Body)
	rejected.Body.Close()
	if eb.Error == "" || eb.RetryAfterSeconds < 1 || eb.BacklogSeconds < 0.05 {
		t.Errorf("rejection body %+v", eb)
	}

	// The admission endpoint accounts for it.
	ar, err := http.Get(ts.URL + "/v1/admission")
	if err != nil {
		t.Fatalf("GET admission: %v", err)
	}
	stats := decodeJSON[struct {
		Policy   string `json:"policy"`
		Rejected int64  `json:"rejected"`
	}](t, ar.Body)
	ar.Body.Close()
	if stats.Rejected < 1 || !strings.HasPrefix(stats.Policy, "threshold") {
		t.Errorf("admission stats %+v", stats)
	}
}

// TestShutdownDrains: a graceful shutdown finishes the in-flight job,
// and submissions during/after the drain get 503 with Retry-After.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{JobWorkers: 1, SolveWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts.URL, SubmitRequest{Spec: tagSpec("drain", 12, []float64{4, 8, 12})})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sub := decodeJSON[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	job, _ := s.Job(sub.Job.ID)

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := job.State(); st != StateDone {
		t.Fatalf("drained job in state %q, want done", st)
	}

	r := postJob(t, ts.URL, SubmitRequest{Spec: tagSpec("late", 4, []float64{4})})
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	defer h.Body.Close()
	if h.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: %d, want 503", h.StatusCode)
	}
}

// TestShutdownKillsAndWritesFailureManifest: when the drain deadline
// passes, unfinished jobs are canceled and each leaves a failure
// manifest that validates (error + flight-recorder events).
func TestShutdownKillsAndWritesFailureManifest(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{JobWorkers: 1, SolveWorkers: 1, ManifestDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A deliberately large sweep (hundreds of distinct K=28-class
	// solves) that cannot finish inside the drain deadline.
	var big []float64
	for i := 1; i <= 400; i++ {
		big = append(big, float64(i))
	}
	resp := postJob(t, ts.URL, SubmitRequest{Spec: tagSpec("kill", 28, big)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sub := decodeJSON[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	job, _ := s.Job(sub.Job.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown reported a clean drain despite the deadline")
	}
	if st := job.State(); st != StateCanceled {
		t.Fatalf("killed job in state %q, want canceled", st)
	}

	m, err := obsv.ReadManifest(filepath.Join(dir, job.ID+".json"))
	if err != nil {
		t.Fatalf("reading failure manifest: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("failure manifest invalid: %v", err)
	}
	if m.Error == "" {
		t.Error("failure manifest carries no error")
	}
	if m.Events == nil || len(m.Events.Recorder) == 0 {
		t.Error("failure manifest carries no flight-recorder events")
	}
	if m.Tool != "pepad" {
		t.Errorf("failure manifest tool %q", m.Tool)
	}
}

// TestCancelQueuedJob: DELETE cancels a queued job; it passes through
// the pool, lands in canceled, and serves 409 for its result.
func TestCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{JobWorkers: 1, SolveWorkers: 1, ManifestDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	// Fill the single worker with a non-trivial job, then queue a
	// second and cancel it before it starts.
	first := postJob(t, ts.URL, SubmitRequest{Spec: tagSpec("front", 20, []float64{2, 4, 6, 8, 10, 12})})
	firstSub := decodeJSON[SubmitResponse](t, first.Body)
	first.Body.Close()
	second := postJob(t, ts.URL, SubmitRequest{Spec: tagSpec("victim", 20, []float64{3, 5, 7})})
	sub := decodeJSON[SubmitResponse](t, second.Body)
	second.Body.Close()

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.Job.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", dr.StatusCode)
	}

	v := waitState(t, ts.URL, sub.Job.ID, StateCanceled)
	if v.Error == "" {
		t.Error("canceled job records no error")
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Errorf("result of canceled job: status %d, want 409", rr.StatusCode)
	}
	// Canceling a finished job is a conflict.
	waitState(t, ts.URL, firstSub.Job.ID, StateDone)
	req2, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+firstSub.Job.ID, nil)
	dr2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("DELETE done job: %v", err)
	}
	dr2.Body.Close()
	if dr2.StatusCode != http.StatusConflict {
		t.Errorf("cancel of done job: status %d, want 409", dr2.StatusCode)
	}
}

// TestSharedCacheAcrossJobs: the second identical job hits the shared
// cache for every point (zero misses).
func TestSharedCacheAcrossJobs(t *testing.T) {
	s := New(Config{JobWorkers: 1, SolveWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	spec := tagSpec("warm", 10, []float64{4, 8, 12})
	a := postJob(t, ts.URL, SubmitRequest{Spec: spec})
	subA := decodeJSON[SubmitResponse](t, a.Body)
	a.Body.Close()
	waitState(t, ts.URL, subA.Job.ID, StateDone)

	b := postJob(t, ts.URL, SubmitRequest{Spec: spec})
	subB := decodeJSON[SubmitResponse](t, b.Body)
	b.Body.Close()
	if subB.Job.FreshShapes != 0 {
		t.Errorf("second job sees %d fresh shapes, want 0 (shared cache)", subB.Job.FreshShapes)
	}
	v := waitState(t, ts.URL, subB.Job.ID, StateDone)
	if v.Result.CacheMisses != 0 || v.Result.CacheHits != 3 {
		t.Errorf("second job cache deltas: %d misses / %d hits, want 0 / 3", v.Result.CacheMisses, v.Result.CacheHits)
	}
}

// TestHTTPValidation: malformed and missing inputs get 4xx, not jobs.
func TestHTTPValidation(t *testing.T) {
	s := New(Config{JobWorkers: 1, SolveWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"garbage body", "POST", "/v1/jobs", "{nope", http.StatusBadRequest},
		{"missing spec", "POST", "/v1/jobs", "{}", http.StatusBadRequest},
		{"unknown field", "POST", "/v1/jobs", `{"specc":{}}`, http.StatusBadRequest},
		{"bad spec", "POST", "/v1/jobs", `{"spec":{"schema":"pepatags/sweep-spec/v1","name":"x"}}`, http.StatusBadRequest},
		{"oversized spec", "POST", "/v1/jobs", `{"spec":{"schema":"pepatags/sweep-spec/v1","name":"x","groups":[{"point":{"series":"s","model":"tagexp","lambda":5,"n":2,"k1":2,"k2":2,"service":{"kind":"exp","mu":10}},"axes":[{"field":"t","linspace":{"from":1,"to":2,"num":1000000000}}]}]}}`, http.StatusBadRequest},
		{"unknown job", "GET", "/v1/jobs/job-9999", "", http.StatusNotFound},
		{"unknown job events", "GET", "/v1/jobs/job-9999/events", "", http.StatusNotFound},
		{"unknown job result", "GET", "/v1/jobs/job-9999/result", "", http.StatusNotFound},
		{"wrong method", "PUT", "/v1/jobs", "{}", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if tc.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Metrics and server-event endpoints respond.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(mb), "# EOF") {
		t.Error("metrics endpoint is not OpenMetrics-terminated")
	}
	er, err := http.Get(ts.URL + "/v1/events?since=0&timeout=1ms&stream=poll")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	er.Body.Close()
	if er.StatusCode != http.StatusOK {
		t.Errorf("server events: status %d", er.StatusCode)
	}
}

// TestManifestCheckAcceptsJobManifests shells the written manifests
// through the same validation the manifestcheck CI gate applies.
func TestManifestDirValidates(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{JobWorkers: 1, SolveWorkers: 1, ManifestDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts.URL, SubmitRequest{Spec: tagSpec("mani", 6, []float64{4, 8})})
	sub := decodeJSON[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	waitState(t, ts.URL, sub.Job.ID, StateDone)
	s.Shutdown(context.Background())

	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("manifest dir: %v entries, err %v", len(ents), err)
	}
	m, err := obsv.ReadManifest(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if m.Sweep == nil || m.Sweep.SpecSHA256 == "" {
		t.Errorf("manifest sweep record %+v", m.Sweep)
	}
	if fmt.Sprint(m.Params["job"]) != sub.Job.ID {
		t.Errorf("manifest params %v", m.Params)
	}
}
