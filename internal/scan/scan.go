// Package scan owns the repository's single sharded candidate-scan
// protocol: the add-major first-improvement and best-move merges that every
// deviation model's per-agent scan runs on.
//
// The paper's equilibrium checks and best-response dynamics all reduce to
// the same inner loop — enumerate an agent's candidate moves, price each,
// keep the best (or first) improving one. Until PR 5 that loop existed in
// two deliberately divergent copies: pricing.Scan's sharded machinery (the
// basic swap checker, tie-broken by (cost, drop, add)) and the game layer's
// scanAddMajor (interests/budget, tie-broken by enumeration position). This
// package extracts the protocol once, parameterized by
//
//   - a price callback (Pricer) that owns whatever per-endpoint work the
//     model needs (a BFS row, a thresholded interest-set reduction, a
//     2-neighborhood coverage count), and
//   - an explicit tie-break Order, so each model's historical witness
//     order is a declared parameter instead of an accident of which copy
//     it ran on.
//
// Two entry points cover every consumer:
//
//   - First returns the first candidate in add-major enumeration order
//     whose cost prices strictly below Spec.Threshold. Chunks past an
//     already-found endpoint are pruned through an atomic CAS on the
//     smallest improving endpoint, so the result equals the sequential
//     early-exit scan for any worker count.
//   - Best returns the minimum-cost candidate under the Spec's Order, with
//     per-chunk running-threshold tightening and a deterministic total-
//     order merge.
//
// Both are bit-identical to their workers == 1 runs for any worker count:
// the merges use total orders and the pruning only discards candidates a
// sequential scan would never have returned.
//
// The package depends only on internal/par; per-worker pricing state (BFS
// scratch, counters) is supplied by the caller through a state factory, so
// internal/pricing can sit above this package and lend its pooled buffers.
package scan

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// Cand is one candidate of an add-major scan: the candidate endpoint, the
// index of the dropped slot in the caller's ascending drop list, and the
// priced cost. Callers map DropIdx back to their move representation.
type Cand struct {
	Add     int
	DropIdx int
	Cost    int64
}

// Order selects the total order the best-move merge breaks cost ties with.
// It is an explicit per-model parameter: the basic swap game's historical
// witnesses order ties by dropped-edge value, the interests/budget scans by
// enumeration position, and conformance tests pin each model to its
// declared order.
type Order int

const (
	// ByEnumeration breaks cost ties toward the earliest candidate in
	// add-major enumeration order: (cost, add, dropIdx).
	ByEnumeration Order = iota
	// ByDropFirst breaks cost ties toward the smallest dropped slot first:
	// (cost, dropIdx, add) — with ascending drop lists this is the
	// (cost, drop, add) order of the historical swap-checker witnesses.
	ByDropFirst
)

// Less reports whether c precedes o under ord.
func (c Cand) Less(o Cand, ord Order) bool {
	if c.Cost != o.Cost {
		return c.Cost < o.Cost
	}
	if ord == ByDropFirst {
		if c.DropIdx != o.DropIdx {
			return c.DropIdx < o.DropIdx
		}
		return c.Add < o.Add
	}
	if c.Add != o.Add {
		return c.Add < o.Add
	}
	return c.DropIdx < o.DropIdx
}

// NoThreshold admits every candidate: Best scans become an unconditional
// minimum search (the historical Scan.BestMove contract, where the caller
// compares the winner against the current cost itself).
const NoThreshold = int64(math.MaxInt64)

// Spec describes one sharded add-major candidate scan.
type Spec struct {
	// Workers bounds the sharding (<= 1 runs the scan inline on the
	// calling goroutine — stateful single-threaded pricers rely on this).
	Workers int
	// N is the candidate-endpoint universe [0, N).
	N int
	// Threshold is the strict admission bound: only candidates pricing
	// strictly below it are eligible. NoThreshold admits all.
	Threshold int64
	// Order is the best-move tie-break (ignored by First, which always
	// returns the enumeration-first candidate).
	Order Order
	// Skip filters endpoints before any pricing work is paid (nil skips
	// nothing). It must be safe for concurrent calls.
	Skip func(add int) bool
	// Cancel, when non-nil, is polled once per candidate endpoint — between
	// pricing units, never inside one — and a true return makes every chunk
	// stop enumerating. A cancelled scan's result is unspecified (it may be
	// partial or absent); callers that install Cancel must check their own
	// cancellation source after the scan and discard the result on expiry.
	// It must be safe for concurrent calls and cheap (it rides the hot
	// loop); the serve layer installs an atomic-flag-guarded ctx.Err poll.
	Cancel func() bool
}

// Pricer prices the drop slots of one candidate endpoint using per-worker
// state ws. threshold() returns the scan's current admission bound; the
// pricer must invoke yield(dropIdx, cost) with the exact cost for every
// drop slot pricing strictly below threshold(), in ascending dropIdx order,
// and may skip — or abort mid-reduction — any slot it can prove is not
// (thresholded reducers like pricing.PatchedSubsetBelow plug in directly).
// yield returning false means the scan needs no further slots from this
// endpoint; the pricer should unwind any endpoint-local state and return.
type Pricer[S any] func(ws S, add int, threshold func() int64, yield func(dropIdx int, cost int64) bool)

// First returns the first candidate in add-major enumeration order — adds
// ascending, drop slots ascending within an endpoint — pricing strictly
// below spec.Threshold. Endpoints are sharded across spec.Workers; chunks
// past an already-found endpoint are pruned via an atomic bound on the
// smallest improving endpoint, so the result equals a sequential early-exit
// scan for any worker count. state is invoked once per chunk.
func First[S any](spec Spec, state func() (S, func()), price Pricer[S]) (Cand, bool) {
	if spec.N <= 0 {
		return Cand{}, false
	}
	var mu sync.Mutex
	var first Cand
	found := false
	// Smallest improving endpoint so far; later chunks are pruned.
	var bestAdd atomic.Int64
	bestAdd.Store(int64(spec.N))
	threshold := func() int64 { return spec.Threshold }
	par.ForChunked(spec.Workers, spec.N, func(lo, hi int) {
		if int64(lo) > bestAdd.Load() {
			return
		}
		ws, release := state()
		defer release()
		// One yield closure per chunk (not per endpoint): cur tracks the
		// endpoint under scan, keeping per-candidate allocations at zero.
		cur := lo
		yield := func(dropIdx int, cost int64) bool {
			mu.Lock()
			if !found || cur < first.Add {
				first, found = Cand{Add: cur, DropIdx: dropIdx, Cost: cost}, true
				for {
					seen := bestAdd.Load()
					if int64(cur) >= seen || bestAdd.CompareAndSwap(seen, int64(cur)) {
						break
					}
				}
			}
			mu.Unlock()
			// Drop slots ascend, so the first improving slot of this
			// endpoint is already the enumeration-first one.
			return false
		}
		for add := lo; add < hi; add++ {
			if int64(add) > bestAdd.Load() {
				return
			}
			if spec.Cancel != nil && spec.Cancel() {
				return
			}
			if spec.Skip != nil && spec.Skip(add) {
				continue
			}
			cur = add
			price(ws, add, threshold, yield)
		}
	})
	return first, found
}

// Best returns the minimum-cost candidate strictly below spec.Threshold
// under spec.Order. Endpoints are sharded across spec.Workers; each chunk
// tightens its own admission threshold as its running best improves (with
// cost ties admitted only when the Order needs them to settle a tie), and
// chunk winners merge under the total order, so the result is identical
// for any worker count. state is invoked once per chunk.
func Best[S any](spec Spec, state func() (S, func()), price Pricer[S]) (Cand, bool) {
	if spec.N <= 0 {
		return Cand{}, false
	}
	var mu sync.Mutex
	var best Cand
	found := false
	par.ForChunked(spec.Workers, spec.N, func(lo, hi int) {
		ws, release := state()
		defer release()
		var local Cand
		haveLocal := false
		threshold := func() int64 {
			t := spec.Threshold
			if haveLocal {
				lt := local.Cost
				if spec.Order == ByDropFirst {
					// Admit cost ties so the (dropIdx, add) comparison can
					// settle them: a later endpoint may carry a smaller
					// dropped slot. ByEnumeration resolves ties by scan
					// position — within a chunk the first-seen candidate
					// wins — so strict admission suffices there.
					lt++
				}
				if lt < t {
					t = lt
				}
			}
			return t
		}
		// One yield closure per chunk; cur tracks the endpoint under scan.
		cur := lo
		yield := func(dropIdx int, cost int64) bool {
			c := Cand{Add: cur, DropIdx: dropIdx, Cost: cost}
			if !haveLocal || c.Less(local, spec.Order) {
				local, haveLocal = c, true
			}
			return true
		}
		for add := lo; add < hi; add++ {
			if spec.Cancel != nil && spec.Cancel() {
				break
			}
			if spec.Skip != nil && spec.Skip(add) {
				continue
			}
			cur = add
			price(ws, add, threshold, yield)
		}
		if haveLocal {
			mu.Lock()
			if !found || local.Less(best, spec.Order) {
				best, found = local, true
			}
			mu.Unlock()
		}
	})
	return best, found
}
