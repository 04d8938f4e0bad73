package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"elba/internal/campaign"
)

// maxSpecBytes bounds a TBL upload; real specs are a few kilobytes.
const maxSpecBytes = 1 << 20

// server routes the campaign service over HTTP. All responses are JSON
// except the result/report renderings, which reuse the CLI's canonical
// serializations (store JSON, store CSV, report tables) byte-for-byte.
type server struct {
	svc *campaign.Service
}

// newMux wires the API:
//
//	POST /campaigns                submit a TBL document (202 + progress)
//	GET  /campaigns                list campaign progress, oldest first
//	GET  /campaigns/{id}           one campaign's progress
//	POST /campaigns/{id}/cancel    cancel (idempotent on terminal campaigns)
//	GET  /campaigns/{id}/results   result store JSON (409 until done)
//	GET  /campaigns/{id}/results.csv  result store CSV (409 until done)
//	GET  /campaigns/{id}/report    rendered tables (409 until done)
//	GET  /campaigns/{id}/stream    live SSE event stream (streaming mode)
//	GET  /campaigns/{id}/stream/tables  running folded tables (streaming mode)
//	GET  /cache/stats              shared trial-cache counters
//	GET  /healthz                  liveness
func newMux(svc *campaign.Service) *http.ServeMux {
	s := &server{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.submit)
	mux.HandleFunc("GET /campaigns", s.list)
	mux.HandleFunc("GET /campaigns/{id}", s.get)
	mux.HandleFunc("POST /campaigns/{id}/cancel", s.cancel)
	mux.HandleFunc("GET /campaigns/{id}/results", s.results)
	mux.HandleFunc("GET /campaigns/{id}/results.csv", s.resultsCSV)
	mux.HandleFunc("GET /campaigns/{id}/report", s.report)
	mux.HandleFunc("GET /campaigns/{id}/stream", s.stream)
	mux.HandleFunc("GET /campaigns/{id}/stream/tables", s.streamTables)
	mux.HandleFunc("GET /cache/stats", s.cacheStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// apiError is the JSON error envelope. Parse failures keep the TBL
// parser's line:column positions verbatim in Error.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	src, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(src) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("spec exceeds %d bytes", maxSpecBytes))
		return
	}
	c, err := s.svc.Submit(string(src))
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, campaign.ErrQueueFull) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Location", "/campaigns/"+c.ID())
	writeJSON(w, http.StatusAccepted, c.Progress())
}

func (s *server) list(w http.ResponseWriter, _ *http.Request) {
	campaigns := s.svc.List()
	out := make([]campaign.Progress, len(campaigns))
	for i, c := range campaigns {
		out[i] = c.Progress()
	}
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves {id} or writes a 404.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*campaign.Campaign, bool) {
	id := r.PathValue("id")
	c, ok := s.svc.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", id))
	}
	return c, ok
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	if c, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, c.Progress())
	}
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	cancelled, err := s.svc.Cancel(c.ID())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":        c.ID(),
		"cancelled": cancelled,
		"status":    c.Status(),
	})
}

// finished gates the result endpoints: 409 with the live progress until
// the campaign is done, so pollers can tell "not yet" from "never".
func (s *server) finished(w http.ResponseWriter, r *http.Request) (*campaign.Campaign, bool) {
	c, ok := s.lookup(w, r)
	if !ok {
		return nil, false
	}
	if c.Status() != campaign.StatusDone {
		writeJSON(w, http.StatusConflict, c.Progress())
		return nil, false
	}
	return c, true
}

func (s *server) results(w http.ResponseWriter, r *http.Request) {
	c, ok := s.finished(w, r)
	if !ok {
		return
	}
	st, err := c.Results()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := st.WriteJSON(w); err != nil {
		// The status line went out with the first result, so abort the
		// connection: the client then sees a failed transfer rather than
		// a short body under 200.
		panic(http.ErrAbortHandler)
	}
}

func (s *server) resultsCSV(w http.ResponseWriter, r *http.Request) {
	c, ok := s.finished(w, r)
	if !ok {
		return
	}
	st, err := c.Results()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	io.WriteString(w, st.CSV())
}

func (s *server) report(w http.ResponseWriter, r *http.Request) {
	c, ok := s.finished(w, r)
	if !ok {
		return
	}
	out, err := c.Report()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, out)
}

// stream serves the campaign's live event stream as server-sent events:
// one `data:` line of StreamEvent JSON per trial commit or detection,
// ending with the terminal "status" event. On a service without -stream
// it reports 409; subscribing to a finished campaign yields just the
// status event. The subscriber queue is bounded (drop-oldest), so a slow
// consumer sees Seq gaps rather than stalling the campaign.
func (s *server) stream(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !c.Streaming() {
		writeError(w, http.StatusConflict,
			fmt.Errorf("campaign %s has no event stream (start elbad with -stream)", c.ID()))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	ch, cancel := c.Subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// streamTables renders the streaming folder's running tables: a
// mid-campaign snapshot of what the final report will say, available
// while trials are still committing.
func (s *server) streamTables(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !c.Streaming() {
		writeError(w, http.StatusConflict,
			fmt.Errorf("campaign %s has no stream state (start elbad with -stream)", c.ID()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, c.StreamTables())
}

func (s *server) cacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Cache().Stats())
}
