package sched

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"

	"windserve/internal/sim"
)

// This file is the Global Scheduler's decision audit trail. Every Dynamic
// Prefill Dispatch choice records the candidate set it weighed (with the
// predicted TTFT split into its compute and transfer terms), the budget in
// force, and the outcome; every Dynamic Rescheduling records its trigger,
// victim, and per-round copy timings. The log makes simulated scheduler
// claims inspectable: "why did request 17 land on decode-1 at t=42s" has a
// recorded answer instead of a guess.
//
// All times serialize as float64 seconds of virtual time.

// DispatchCandidate is one placement the Coordinator could have chosen for
// an arriving request, with its TTFT prediction broken into terms.
type DispatchCandidate struct {
	// Instance is the candidate's name (e.g. "prefill-0", "decode-1").
	Instance string `json:"instance"`
	// QueuedTokens is the candidate's waiting prefill work at decision time.
	QueuedTokens int `json:"queued_tokens"`
	// ComputeTTFT is the predicted queue+compute term (eq. 1 plus the busy
	// remainder); TransferTTFT is the predicted post-prefill KV copy at the
	// Profiler's observed link rate (0 for placements needing no transfer).
	ComputeTTFT  sim.Duration `json:"compute_ttft_s"`
	TransferTTFT sim.Duration `json:"transfer_ttft_s"`
	// PredictedTTFT = ComputeTTFT + TransferTTFT.
	PredictedTTFT sim.Duration `json:"predicted_ttft_s"`
}

// DispatchRecord is one Dynamic Prefill Dispatch decision (Algorithm 1).
type DispatchRecord struct {
	Time         sim.Time `json:"t_s"`
	ReqID        uint64   `json:"req"`
	PromptTokens int      `json:"prompt_tokens"`
	// CachedTokens is how many prompt tokens the prefill instance's
	// cross-request prefix cache already held at decision time (0, and
	// omitted, unless prefix caching is enabled).
	CachedTokens int `json:"cached_tokens,omitempty"`
	// Candidates holds every placement weighed, prefill instances first.
	Candidates []DispatchCandidate `json:"candidates"`
	// Threshold is Algorithm 1's thrd on predicted TTFT.
	Threshold sim.Duration `json:"threshold_s"`
	// BudgetTokens is the AssistBudget in force; AssistInFlight the tokens
	// already dispatched and unfinished; Slots the remaining capacity after
	// the budget and KV-safety checks.
	BudgetTokens   int `json:"budget_tokens"`
	AssistInFlight int `json:"assist_in_flight"`
	Slots          int `json:"slots"`
	// Target is the chosen instance; ToDecode is true when the request was
	// dispatched to a decode instance's SBD stream.
	Target   string `json:"target"`
	ToDecode bool   `json:"to_decode"`
}

// CopyRound is one link occupation of a stall-free migration: a background
// copy of the dirty span, or the final bounded drain.
type CopyRound struct {
	Kind   string   `json:"kind"` // "copy" | "drain"
	Start  sim.Time `json:"start_s"`
	End    sim.Time `json:"end_s"`
	Tokens int      `json:"tokens"`
}

// RescheduleRecord is one Dynamic Rescheduling (migration) of a decode job.
type RescheduleRecord struct {
	Time  sim.Time `json:"t_s"`
	ReqID uint64   `json:"req"`
	// Trigger names what started the migration (e.g. "low-watermark").
	Trigger string `json:"trigger"`
	// FreeFrac is the decode instance's free-KV fraction at trigger time.
	FreeFrac float64 `json:"free_frac"`
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	// CtxTokens is the victim's context at trigger; BackupTokens how much a
	// proactive backup already held at the destination.
	CtxTokens    int `json:"ctx_tokens"`
	BackupTokens int `json:"backup_tokens"`
	// Rounds are the copy rounds in order, the drain last when it happened.
	Rounds []CopyRound `json:"rounds,omitempty"`
	// Outcome: "migrated" after a completed drain, "dead" when an endpoint
	// crashed or the request terminated mid-copy, "" while still in flight.
	Outcome string `json:"outcome,omitempty"`
}

// RouteRecord is a plain routing choice with no prediction behind it —
// DistServe's round-robin, vLLM's replica pick, WindServe's least-loaded
// prefill fallback. Logged so every system's placements are auditable in
// the same file.
type RouteRecord struct {
	Time   sim.Time `json:"t_s"`
	ReqID  uint64   `json:"req"`
	Target string   `json:"target"`
	// Reason names the policy ("round-robin", "least-loaded", ...).
	Reason string `json:"reason"`
}

// DecisionLog accumulates scheduler decisions during a run. A nil
// *DecisionLog is valid and records nothing, so systems can log
// unconditionally (mirroring trace.Tracer).
type DecisionLog struct {
	Dispatches  []*DispatchRecord
	Reschedules []*RescheduleRecord
	Routes      []*RouteRecord
}

// NewDecisionLog returns an empty log.
func NewDecisionLog() *DecisionLog { return &DecisionLog{} }

// AddDispatch appends a dispatch record. No-op on a nil log.
func (l *DecisionLog) AddDispatch(r *DispatchRecord) {
	if l == nil {
		return
	}
	l.Dispatches = append(l.Dispatches, r)
}

// AddReschedule appends a reschedule record and returns it so the caller
// can keep appending copy rounds as they complete. Returns nil on a nil
// log (callers must nil-check before mutating).
func (l *DecisionLog) AddReschedule(r *RescheduleRecord) *RescheduleRecord {
	if l == nil {
		return nil
	}
	l.Reschedules = append(l.Reschedules, r)
	return r
}

// AddRoute appends a routing record. No-op on a nil log.
func (l *DecisionLog) AddRoute(at sim.Time, reqID uint64, target, reason string) {
	if l == nil {
		return
	}
	l.Routes = append(l.Routes, &RouteRecord{Time: at, ReqID: reqID, Target: target, Reason: reason})
}

// Absorb merges per-actor logs into l in canonical order. Each part must
// be internally time-sorted (true of any log appended from a single
// simulator's events); parts are passed in actor order. Concatenating in
// part order and stable-sorting by Time is then exactly a merge keyed by
// (Time, actor, per-actor append order) — independent of how the actors
// were scheduled, so a sharded fleet run absorbs to the same log as a
// sequential one. No-op on a nil receiver; nil parts are skipped.
func (l *DecisionLog) Absorb(parts ...*DecisionLog) {
	if l == nil {
		return
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		l.Dispatches = append(l.Dispatches, p.Dispatches...)
		l.Reschedules = append(l.Reschedules, p.Reschedules...)
		l.Routes = append(l.Routes, p.Routes...)
	}
	sort.SliceStable(l.Dispatches, func(i, j int) bool { return l.Dispatches[i].Time < l.Dispatches[j].Time })
	sort.SliceStable(l.Reschedules, func(i, j int) bool { return l.Reschedules[i].Time < l.Reschedules[j].Time })
	sort.SliceStable(l.Routes, func(i, j int) bool { return l.Routes[i].Time < l.Routes[j].Time })
}

// Len returns the total number of recorded decisions.
func (l *DecisionLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.Dispatches) + len(l.Reschedules) + len(l.Routes)
}

// jsonl envelopes: one self-describing object per line.
type dispatchLine struct {
	Type string `json:"type"`
	*DispatchRecord
}
type rescheduleLine struct {
	Type string `json:"type"`
	*RescheduleRecord
}
type routeLine struct {
	Type string `json:"type"`
	*RouteRecord
}

// WriteJSONL emits the log as JSON Lines, one decision per line tagged
// with its type ("dispatch", "reschedule", "route"), merged into virtual-
// time order. Safe on a nil log (writes nothing).
func (l *DecisionLog) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	type entry struct {
		t   sim.Time
		seq int
		v   any
	}
	entries := make([]entry, 0, l.Len())
	for _, r := range l.Dispatches {
		entries = append(entries, entry{r.Time, len(entries), dispatchLine{"dispatch", r}})
	}
	for _, r := range l.Reschedules {
		entries = append(entries, entry{r.Time, len(entries), rescheduleLine{"reschedule", r}})
	}
	for _, r := range l.Routes {
		entries = append(entries, entry{r.Time, len(entries), routeLine{"route", r}})
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].t != entries[j].t {
			return entries[i].t < entries[j].t
		}
		return entries[i].seq < entries[j].seq
	})
	// Each Encode is one small Write; for a long capture that is one
	// syscall per decision unless the writer is buffered.
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, e := range entries {
		if err := enc.Encode(e.v); err != nil {
			return err
		}
	}
	return bw.Flush()
}
