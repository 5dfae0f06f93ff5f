package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"pepatags/internal/obsv"
	"pepatags/internal/sweep"
)

// SubmitRequest is the POST /v1/jobs body: a sweep spec
// (pepatags/sweep-spec/v1, the same document tagseval -sweep reads)
// plus an optional per-job worker override.
type SubmitRequest struct {
	Spec    *sweep.Spec `json:"spec"`
	Workers int         `json:"workers,omitempty"`
}

// SubmitResponse is the 202 body for an admitted job.
type SubmitResponse struct {
	Job View `json:"job"`
	// BacklogSeconds / CostSeconds echo the admission decision.
	BacklogSeconds float64 `json:"backlog_seconds"`
	CostSeconds    float64 `json:"cost_seconds"`
}

// errorBody is the JSON error envelope every non-2xx response uses.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
	BacklogSeconds    float64 `json:"backlog_seconds,omitempty"`
	CostSeconds       float64 `json:"cost_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint: the status line is already out; nothing to do on error
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// Handler returns the daemon's HTTP API (see docs/PEPAD.md).
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/admission", s.handleAdmission)
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		obsv.ServeEvents(w, r, s.log)
	})
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		s.reg.WriteOpenMetrics(w)
	})
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if req.Spec == nil {
		writeError(w, http.StatusBadRequest, `request needs a "spec" (pepatags/sweep-spec/v1)`)
		return
	}
	job, err := s.Submit(req.Spec, req.Workers)
	if err != nil {
		var se *SubmitError
		if errors.As(err, &se) {
			w.Header().Set("Retry-After", strconv.Itoa(int(se.RetryAfter.Seconds())))
			body := errorBody{Error: se.Reason, RetryAfterSeconds: se.RetryAfter.Seconds()}
			if se.Decision != nil {
				body.BacklogSeconds = se.Decision.BacklogSeconds
				body.CostSeconds = se.Decision.CostSeconds
			}
			writeJSON(w, se.Status, body)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		Job:            job.View(),
		BacklogSeconds: s.ctrl.Backlog(),
		CostSeconds:    job.Cost,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]View, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	state := "serving"
	if s.Draining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"state": state, "jobs": views})
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
		return nil
	}
	return job
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job := s.lookupJob(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.View())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	switch job.State() {
	case StateDone, StateFailed, StateCanceled:
		writeError(w, http.StatusConflict, "job already "+job.State())
		return
	}
	job.Cancel()
	s.log.Infof("job.cancel", "%s: cancellation requested", job.ID)
	writeJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if job := s.lookupJob(w, r); job != nil {
		obsv.ServeEvents(w, r, job.Log)
	}
}

// handleResult serves a completed job's rows. ?format= selects the
// representation:
//
//   - rows (default): JSON {"rows": [...]} — the journal rows.
//   - table: the figure rendered as aligned text, byte-identical to
//     `tagseval -sweep` stdout for the same spec.
//   - csv: the figure in CSV, byte-identical to `tagseval -sweep -csv`.
//
// table/csv need the spec to carry a figure section.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	switch job.State() {
	case StateDone:
	case StateQueued, StateRunning:
		writeError(w, http.StatusConflict, "job is "+job.State()+"; poll /v1/jobs/"+job.ID+" or stream /v1/jobs/"+job.ID+"/events")
		return
	default:
		writeError(w, http.StatusConflict, "job "+job.State()+" produced no result")
		return
	}
	res := job.Result()

	format := r.URL.Query().Get("format")
	if format == "" {
		format = "rows"
	}
	if format == "table" || format == "csv" {
		if job.Spec.Figure == nil {
			writeError(w, http.StatusBadRequest, "spec has no figure section; use format=rows")
			return
		}
		f, err := sweep.Assemble(job.Spec, res)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "assembling table: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if format == "csv" {
			f.CSV(w)
		} else {
			f.Render(w)
		}
		return
	}
	if format != "rows" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (rows, table, csv)", format))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":         job.ID,
		"spec_sha256": job.SpecHash,
		"rows":        res.Rows,
	})
}

func (s *Server) handleAdmission(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ctrl.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "serving"
	code := http.StatusOK
	if s.Draining() {
		state = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": "ok", "state": state})
}
