package graphio

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
)

// fuzzMaxN is the vertex limit FuzzDecodeGraph decodes under: small, so a
// hostile header is refused long before the graph could grow.
const fuzzMaxN = 64

// decodeFormat decodes data in format f (0 edge list, 1 graph6, 2
// sparse6) under the vertex limit maxN.
func decodeFormat(f int, data string, maxN int) (*graph.Graph, error) {
	switch f {
	case 0:
		return ReadEdgeListMax(strings.NewReader(data), maxN)
	case 1:
		return FromGraph6Max(data, maxN)
	default:
		return FromSparse6Max(data, maxN)
	}
}

// encodeFormat is decodeFormat's inverse.
func encodeFormat(f int, g *graph.Graph) (string, error) {
	switch f {
	case 0:
		var sb strings.Builder
		err := WriteEdgeList(&sb, g)
		return sb.String(), err
	case 1:
		return ToGraph6(g)
	default:
		return ToSparse6(g)
	}
}

// FuzzDecodeGraph feeds arbitrary bytes to the three graph decoders — the
// service's trust boundary — under a small vertex limit. A decoder never
// panics; a header above the limit is a *SizeError; a graph it accepts
// respects the limit, is exactly what the same decoder returns without
// the limit, and re-encodes and decodes to an identical graph.
func FuzzDecodeGraph(f *testing.F) {
	f.Add(uint8(0), []byte("3 2\n0 1\n1 2\n"))
	f.Add(uint8(0), []byte("# c\n\n2 1\n0 1\n"))
	f.Add(uint8(0), []byte("20000000 0"))
	f.Add(uint8(0), []byte("3 1\n0 0\n"))
	f.Add(uint8(1), []byte("Bw"))
	f.Add(uint8(1), []byte("~?@?"))
	f.Add(uint8(1), []byte(" "))
	f.Add(uint8(2), []byte(":Fa@x^"))
	f.Add(uint8(2), []byte(":~@?@"))
	f.Add(uint8(2), []byte(":~~~~~~~~"))
	f.Fuzz(func(t *testing.T, format uint8, data []byte) {
		fmtIdx := int(format % 3)
		s := string(data)
		g, err := decodeFormat(fmtIdx, s, fuzzMaxN)
		var se *SizeError
		if errors.As(err, &se) {
			if se.N <= fuzzMaxN || se.Max != fuzzMaxN {
				t.Fatalf("SizeError %+v under limit %d", se, fuzzMaxN)
			}
			return
		}
		// The header fits the limit, so the unlimited decode is cheap and
		// must agree: the limit only ever refuses sizes.
		ref, refErr := decodeFormat(fmtIdx, s, MaxN)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("format %d: limited decode err=%v, unlimited err=%v", fmtIdx, err, refErr)
		}
		if err != nil {
			return
		}
		if g.N() > fuzzMaxN {
			t.Fatalf("format %d: accepted n=%d above the limit %d", fmtIdx, g.N(), fuzzMaxN)
		}
		if !g.Equal(ref) {
			t.Fatalf("format %d: limited and unlimited decodes differ", fmtIdx)
		}
		enc, err := encodeFormat(fmtIdx, g)
		if err != nil {
			t.Fatalf("format %d: re-encode: %v", fmtIdx, err)
		}
		back, err := decodeFormat(fmtIdx, enc, fuzzMaxN)
		if err != nil {
			t.Fatalf("format %d: decode of re-encoded %q: %v", fmtIdx, enc, err)
		}
		if !back.Equal(g) {
			t.Fatalf("format %d: round trip changed the graph (%q)", fmtIdx, enc)
		}
	})
}

// TestDecodersRefuseHeaderBeforeAllocating pins the allocation half of the
// bound: refusing a header above the limit allocates almost nothing, in
// every format and through the plain decoders' MaxN default.
func TestDecodersRefuseHeaderBeforeAllocating(t *testing.T) {
	cases := []struct {
		format int
		data   string
		maxN   int
	}{
		{0, "20000000 0", MaxN},
		{0, "1000000 0", 4096},
		{1, "~@?@", 4096},
		{2, ":~@?@", 4096},
		{2, ":~}~~", 1000},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := decodeFormat(tc.format, tc.data, tc.maxN)
		runtime.ReadMemStats(&after)
		var se *SizeError
		if !errors.As(err, &se) {
			t.Fatalf("format %d %q: got %v, want a *SizeError", tc.format, tc.data, err)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
			t.Errorf("format %d %q: refusing the header allocated %d bytes, want < 1 MB", tc.format, tc.data, delta)
		}
	}
	if _, err := ReadInterests(strings.NewReader("20000000\n")); err == nil {
		t.Error("ReadInterests accepted n=20000000")
	}
}
