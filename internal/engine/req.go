package engine

import (
	"fmt"

	"windserve/internal/kvcache"
	"windserve/internal/workload"
)

// Phase is a request's position in the serving pipeline.
type Phase int

// Pipeline phases. Not every system visits every phase: co-located vLLM
// never transfers, DistServe never migrates.
const (
	// PhaseWaiting: queued for prefill.
	PhaseWaiting Phase = iota
	// PhasePrefilling: prefill (possibly chunked) in progress.
	PhasePrefilling
	// PhaseTransferring: KV cache moving between instances.
	PhaseTransferring
	// PhasePendingDecode: prefilled, KV resident, waiting to join the
	// running decode batch.
	PhasePendingDecode
	// PhaseDecoding: in the running batch.
	PhaseDecoding
	// PhaseSwapped: preempted, KV in host memory.
	PhaseSwapped
	// PhaseDraining: paused for the final copy of a stall-free migration.
	PhaseDraining
	// PhaseDone: EOS produced.
	PhaseDone
	// PhaseAborted: terminated before EOS — a TTFT-deadline abort or a
	// client cancellation. Terminal; the engine drops the request from
	// every queue and releases its KV.
	PhaseAborted
)

func (p Phase) String() string {
	switch p {
	case PhaseWaiting:
		return "waiting"
	case PhasePrefilling:
		return "prefilling"
	case PhaseTransferring:
		return "transferring"
	case PhasePendingDecode:
		return "pending-decode"
	case PhaseDecoding:
		return "decoding"
	case PhaseSwapped:
		return "swapped"
	case PhaseDraining:
		return "draining"
	case PhaseDone:
		return "done"
	case PhaseAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Req is a request flowing through the simulated serving system.
type Req struct {
	W     workload.Request
	Phase Phase

	// PrefillDone counts prompt tokens already prefilled (chunked prefill
	// advances this across iterations).
	PrefillDone int

	// Assist marks a prefill dispatched to the decode instance
	// (WindServe's Dynamic Prefill Dispatch).
	Assist bool
	// Migrating marks an in-progress stall-free migration.
	Migrating bool
	// BackupTokens is how many context tokens are already backed up at the
	// prefill instance (reduces migration cost, paper §3.3).
	BackupTokens int
	// PrefixHit is how many prompt tokens were satisfied from the
	// cross-request prefix cache when this request's KV was allocated:
	// they start out counted in PrefillDone, so prefill compute shrinks
	// by the hit length. Zero unless prefix caching is enabled. Reset
	// alongside PrefillDone when a crash (Restart) or recompute-eviction
	// forces a scratch re-prefill.
	PrefixHit int
	// Evictions counts preemptions (swap-outs and recompute evictions).
	Evictions int

	// gen is the stored output-token count (prefill produces the first).
	// While the request runs, Generated adds the decode passes its
	// instance has applied to it since (see Instance.gained), so a decode
	// pass need not visit every request to count its token.
	gen int

	// inPass marks the request as selected into a prefill pass that has
	// not yet applied — pipelined prefill passes overlap, and a request
	// must never be in two passes at once.
	inPass bool
	// runningOn is the instance whose running batch holds the request, nil
	// when it is in none. Every push onto a running batch sets it and every
	// removal clears it, so membership is one pointer compare.
	runningOn *Instance
	// mark is runningOn's applied-pass count that gen is relative to.
	mark int
	// seq orders the request in its running batch. key is its position in
	// the decode pass in flight: seq, or the old seq of a request removed
	// and re-inserted while that pass was in flight, which keeps the
	// pass's token at its old position.
	seq, key int
	// due is the decode pass at which the instance next visits the request:
	// it finishes then, or its next token crosses the KV blocks it holds.
	due int
	// fresh marks a request the instance has not visited since it joined
	// the batch; its KV token count is still the one it joined with.
	fresh bool
	// kv is the handle to the KV allocation this request last grew,
	// re-resolved only when it is dead or on another instance's manager
	// (migration, release, crash, re-allocation).
	kv *kvcache.Alloc
}

// NewReq wraps a workload request.
func NewReq(w workload.Request) *Req { return &Req{W: w} }

// KVID is the request's key in KV managers.
func (r *Req) KVID() kvcache.RequestID { return kvcache.RequestID(r.W.ID) }

// Generated counts output tokens produced; prefill produces the first.
func (r *Req) Generated() int {
	if ins := r.runningOn; ins != nil {
		return r.gen + ins.gained(r)
	}
	return r.gen
}

// SetGenerated sets the output-token count of a request in no running
// batch (a fresh request, or a recovered one rolled back to its backup).
func (r *Req) SetGenerated(n int) {
	if r.runningOn != nil {
		panic(fmt.Sprintf("engine: set the token count of %v while it runs on %s", r, r.runningOn.cfg.Name))
	}
	r.gen = n
}

// Ctx is the current context length (prompt plus generated tokens).
func (r *Req) Ctx() int { return r.W.PromptTokens + r.Generated() }

// PrefillComplete reports whether the whole prompt has been prefilled.
func (r *Req) PrefillComplete() bool { return r.PrefillDone >= r.W.PromptTokens }

// PrefillRemaining is the number of prompt tokens still to prefill.
func (r *Req) PrefillRemaining() int { return r.W.PromptTokens - r.PrefillDone }

// Restart forgets everything the request built on KV it has lost — a
// crash took the instance holding it: prefill and prefix-hit progress,
// generated tokens, backup coverage, and the assist and migration marks.
// The request then re-prefills from scratch. Recompute eviction is not a
// restart: it keeps Generated and resets only the prefill progress.
func (r *Req) Restart() {
	r.SetGenerated(0)
	r.PrefillDone, r.PrefixHit, r.BackupTokens = 0, 0, 0
	r.Assist, r.Migrating = false, false
}

// Finished reports whether all output tokens have been generated.
func (r *Req) Finished() bool { return r.Generated() >= r.W.OutputTokens }

func (r *Req) String() string {
	return fmt.Sprintf("req%d[%s %d/%d prompt, %d/%d out]",
		r.W.ID, r.Phase, r.PrefillDone, r.W.PromptTokens, r.Generated(), r.W.OutputTokens)
}
