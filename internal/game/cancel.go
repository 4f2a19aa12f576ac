package game

// ScanCanceller is the optional capability of session instances whose
// per-agent candidate scans poll a cooperative cancel hook between pricing
// units (one poll per candidate endpoint, which costs at most one
// shared-row fill plus one verification BFS). Installing a hook makes a
// long single-agent scan — the /v1/bestresponse hot path, where one
// vertex's scan is Θ(n) BFS — abortable mid-scan instead of being one
// uncancellable pricing unit.
//
// A cancelled scan's result is unspecified (partial or absent); the
// installer must check its own cancellation source after the scan and
// discard the result on expiry. The hook must be cheap and safe for
// concurrent calls. All pricing-session-backed instances implement this;
// naive oracles do not.
type ScanCanceller interface {
	SetScanCancel(cancel func() bool)
}

// SetScanCancel installs cancel on inst's per-agent scans when the
// instance supports it, reporting whether it was installed. Callers whose
// instance lacks the capability fall back to checking cancellation only
// between scans.
func SetScanCancel(inst Instance, cancel func() bool) bool {
	sc, ok := inst.(ScanCanceller)
	if ok {
		sc.SetScanCancel(cancel)
	}
	return ok
}
