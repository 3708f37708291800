package sched

import (
	"windserve/internal/engine"
	"windserve/internal/sim"
)

// Coordinator makes the Global Scheduler's cross-instance decisions
// (paper §3.2.2). It is pure policy: the serving system feeds it
// observations and executes its decisions, which keeps every branch of
// Algorithm 1 unit-testable without a simulator.
type Coordinator struct {
	Prof *Profiler
	// Thrd is Algorithm 1's dispatch threshold on predicted TTFT — set
	// slightly below the TTFT SLO (paper Fig. 5 discussion).
	Thrd sim.Duration
	// BudgetTokens caps concurrently dispatched prefill tokens in the
	// decode instance (the §3.2.2 budget, from AssistBudget).
	BudgetTokens int
	// KVSafetyTokens is the free-KV floor the decode instance must keep
	// after accepting an assist, so dispatch never starves decode growth.
	KVSafetyTokens int
}

// DispatchInput is the Coordinator's view when a request arrives
// (Algorithm 1's inputs).
type DispatchInput struct {
	// NewPromptTokens is R_new's prompt length.
	NewPromptTokens int
	// QueuedPrefillTokens is the prefill instance's waiting-queue total.
	QueuedPrefillTokens int
	// PrefillBusyRemaining is the anticipated remaining time of the batch
	// currently prefilling.
	PrefillBusyRemaining sim.Duration
	// DecodeFreeKVTokens is the decode instance's free block capacity.
	DecodeFreeKVTokens int
	// AssistInFlightTokens counts prefill tokens already dispatched and
	// not yet finished in the decode instance.
	AssistInFlightTokens int
	// TransferBytes is the KV payload the prefill path would have to move
	// to a decode instance afterwards. Priced with the Profiler's observed
	// transfer rate, it biases dispatch toward the decode instance (whose
	// prefill needs no transfer) when links degrade.
	TransferBytes float64
	// CachedTokens is how many of R_new's prompt tokens the prefill
	// instance already holds in its cross-request prefix cache: they cost
	// no prefill compute there, so the TTFT prediction shrinks by the hit
	// length. Zero unless prefix caching is enabled.
	CachedTokens int
}

// DispatchDecision is the outcome of Algorithm 1 for one arrival.
type DispatchDecision struct {
	// ToDecode dispatches the prefill to the decode instance.
	ToDecode bool
	// PredictedTTFT is the Profiler's estimate if served by the prefill
	// instance (lines 1 of Algorithm 1): ComputeTTFT + TransferTTFT.
	PredictedTTFT sim.Duration
	// ComputeTTFT is the queue+compute term (eq. 1 over the waiting tokens
	// plus the busy remainder); TransferTTFT the post-prefill KV copy at
	// the observed link rate. Split out for the decision log.
	ComputeTTFT  sim.Duration
	TransferTTFT sim.Duration
	// Slots is the assist capacity that was available (tokens).
	Slots int
}

// DecideDispatch runs Algorithm 1: predict the TTFT on the prefill
// instance; if it exceeds the threshold and the decode instance has
// enough slots (budget and KV), dispatch there.
func (c *Coordinator) DecideDispatch(in DispatchInput) DispatchDecision {
	newTokens := in.NewPromptTokens - in.CachedTokens
	if newTokens < 0 {
		newTokens = 0
	}
	compute := c.Prof.PredictPrefill(in.QueuedPrefillTokens+newTokens) + in.PrefillBusyRemaining
	transfer := c.Prof.PredictTransfer(in.TransferBytes)
	pred := compute + transfer

	slots := c.BudgetTokens - in.AssistInFlightTokens
	if kvRoom := in.DecodeFreeKVTokens - c.KVSafetyTokens; kvRoom < slots {
		slots = kvRoom
	}
	if slots < 0 {
		slots = 0
	}
	d := DispatchDecision{PredictedTTFT: pred, ComputeTTFT: compute, TransferTTFT: transfer, Slots: slots}
	if pred > c.Thrd && slots >= in.NewPromptTokens {
		d.ToDecode = true
	}
	return d
}

// ReschedulePolicy parameterizes Dynamic Rescheduling (§3.2.2, §3.3).
type ReschedulePolicy struct {
	// LowWatermark triggers rescheduling when the decode instance's free
	// block fraction falls below it.
	LowWatermark float64
	// TargetFree is the free fraction rescheduling tries to restore.
	TargetFree float64
	// DrainThresholdTokens pauses a migrating request's decoding once its
	// un-copied tail is at most this many tokens (stall-free migration's
	// final-copy bound).
	DrainThresholdTokens int
	// MaxConcurrentMigrations bounds in-flight migrations.
	MaxConcurrentMigrations int
	// PreferShortVictims migrates the shortest contexts first — Llumnix's
	// choice, which minimizes per-migration cost. WindServe instead
	// migrates the longest contexts (the default, false) to free the most
	// blocks per migration and minimize repeat migrations (§3.3). Exposed
	// so the two policies can be compared experimentally.
	PreferShortVictims bool
}

// DefaultReschedulePolicy returns the paper-calibrated policy.
func DefaultReschedulePolicy() ReschedulePolicy {
	return ReschedulePolicy{
		LowWatermark:            0.08,
		TargetFree:              0.18,
		DrainThresholdTokens:    64,
		MaxConcurrentMigrations: 2,
	}
}

// ShouldTrigger reports whether rescheduling should start.
func (p ReschedulePolicy) ShouldTrigger(freeFrac float64) bool {
	return freeFrac < p.LowWatermark
}

// PickVictims selects which running requests to migrate. By default the
// longest contexts go first (the paper migrates long sequences to free
// the most blocks and reduce repeat migrations — the opposite of Llumnix,
// §3.3); PreferShortVictims flips the order for comparison. Requests
// already migrating are skipped, and ties go in batch order. Enough
// victims, at most maxVictims, are returned to free at least needTokens
// of context.
func (p ReschedulePolicy) PickVictims(running []*engine.Req, needTokens, maxVictims int) []*engine.Req {
	if maxVictims <= 0 {
		return nil
	}
	// One pass keeps the best maxVictims in victim order.
	best := make([]*engine.Req, 0, min(maxVictims, len(running)))
	for _, r := range running {
		if r.Migrating || r.Phase != engine.PhaseDecoding {
			continue
		}
		ctx := r.Ctx()
		i := len(best)
		for i > 0 && p.migratesFirst(ctx, best[i-1].Ctx()) {
			i--
		}
		if i == maxVictims {
			continue
		}
		if len(best) < maxVictims {
			best = append(best, nil)
		}
		copy(best[i+1:], best[i:len(best)-1])
		best[i] = r
	}
	freed := 0
	for k, r := range best {
		if freed >= needTokens {
			return best[:k]
		}
		freed += r.Ctx()
	}
	return best
}

// migratesFirst reports whether a context of a tokens goes before one of
// b tokens.
func (p ReschedulePolicy) migratesFirst(a, b int) bool {
	if p.PreferShortVictims {
		return a < b
	}
	return a > b
}

// Proactive KV backups (§3.3): when the prefill instance has plenty of
// free blocks and the decode instance is filling up, copy long-context
// requests' KV ahead of time so a later migration only moves the delta.
// The thresholds are the paper-calibrated values.
const (
	// backupDecodePressure: start backing up when the decode free
	// fraction drops below this.
	backupDecodePressure = 0.35
	// backupPrefillFreeFloor: only use prefill KV while its free fraction
	// stays above this (prefill work always has priority for its own
	// blocks).
	backupPrefillFreeFloor = 0.5
	// backupMinContextTokens: only back up requests at least this long.
	backupMinContextTokens = 512
)

// ShouldBackup reports whether conditions favor proactive backups.
func ShouldBackup(decodeFreeFrac, prefillFreeFrac float64) bool {
	return decodeFreeFrac < backupDecodePressure && prefillFreeFrac > backupPrefillFreeFloor
}

// PickBackupCandidate returns the longest running request above the
// length floor that has no backup yet, is not migrating and has no backup
// copy in flight, or nil.
func PickBackupCandidate(running []*engine.Req) *engine.Req {
	var best *engine.Req
	bestCtx := backupMinContextTokens - 1
	for _, r := range running {
		if r.Migrating || r.BackupInFlight || r.BackupTokens > 0 {
			continue
		}
		if ctx := r.Ctx(); ctx > bestCtx {
			best, bestCtx = r, ctx
		}
	}
	return best
}
