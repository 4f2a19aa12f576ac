package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/constructions"
)

// TestJournalBatchedBitReplaysToOneKey pins that the batched request bit
// left the check's identity: journal lines for one graph written with
// batched true and false (as older servers did, one entry per bit) replay
// onto a single entry, a request carrying either bit is answered from the
// store, and new appends no longer record the bit.
func TestJournalBatchedBitReplaysToOneKey(t *testing.T) {
	req := CheckRequest{Graph: mustDTO(t, constructions.Path(9)), Objective: "sum"}
	fresh, err := NewServer(Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Check(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Close()

	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	var lines []string
	for _, batched := range []bool{false, true} {
		b, err := json.Marshal(&StoreEntry{
			ID: "sv-old", Kind: "verdict", Source: "serve",
			Sparse6: req.Graph.Data, Objective: "sum",
			Batched: batched, BatchedRan: !batched,
			Stable: want.Stable, Witness: want.Violation,
		})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, batched := range []bool{false, true} {
		srv, err := NewServer(Config{StorePath: path})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		if n := srv.Stats().Store.Entries; n != 1 {
			t.Fatalf("journal with both bits replayed to %d entries, want 1", n)
		}
		r := req
		r.Batched = batched
		got, err := srv.Check(context.Background(), r)
		if err != nil {
			t.Fatalf("batched=%t: %v", batched, err)
		}
		if !got.Stored {
			t.Errorf("batched=%t: not answered from the store", batched)
		}
		// Bit-identical to a fresh certification, including the path
		// report, whichever bit the journal line was written with.
		if !reflect.DeepEqual(got.VerdictDTO, want.VerdictDTO) {
			t.Errorf("batched=%t: stored verdict %+v, certified %+v", batched, got.VerdictDTO, want.VerdictDTO)
		}
		srv.Close()
	}

	// A fresh certification journals a line without the request bit.
	path2 := filepath.Join(t.TempDir(), "verdicts.jsonl")
	srv, err := NewServer(Config{StorePath: path2})
	if err != nil {
		t.Fatal(err)
	}
	r := req
	r.Batched = true
	if _, err := srv.Check(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	f, err := os.Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e StoreEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Batched {
			t.Errorf("new journal line records the request bit: %s", sc.Text())
		}
	}
}

// TestHostileSizeHeaderAllocatesNothing is the regression test for the
// unbounded edge-list header: an 11-byte body declaring a million
// vertices used to allocate the whole map-per-vertex graph (about 55 MB)
// before the MaxN check ran. Now the header of every format is checked
// first, so the request is refused with 413 having allocated almost
// nothing.
func TestHostileSizeHeaderAllocatesNothing(t *testing.T) {
	srv, err := NewServer(Config{MaxN: 4096, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, dto := range []GraphDTO{
		{Format: FormatEdgeList, Data: "1000000 0"},
		{Format: FormatEdgeList, Data: "4097 0"},
		{Format: FormatGraph6, Data: "~@?@"},   // n = 4096 + 1
		{Format: FormatSparse6, Data: ":~@?@"}, // n = 4096 + 1
		{Format: FormatSparse6, Data: ":~}~~"}, // n = 258047
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := srv.Check(context.Background(), CheckRequest{Graph: dto, Objective: "sum"})
		runtime.ReadMemStats(&after)
		var ae *apiError
		if !asAPIError(err, &ae) || ae.Status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %q: got %v, want 413", dto.Format, dto.Data, err)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
			t.Errorf("%s %q: refusing the header allocated %d bytes, want < 1 MB", dto.Format, dto.Data, delta)
		}
	}
}

// TestOversizedBodyIs413 pins the body cap: every /v1/* endpoint refuses
// a body larger than the largest valid request for MaxN with 413 — never
// a 400 or a 500 — and still serves ordinary bodies.
func TestOversizedBodyIs413(t *testing.T) {
	const maxN = 8
	_, client := newTestServer(t, Config{MaxN: maxN})
	limit := maxBodyBytes(maxN)
	huge := `{"graph": {"format": "edgelist", "data": "` + strings.Repeat("0 1\\n", int(limit/4)+1) + `"}}`
	for _, path := range []string{"/v1/check", "/v1/bestresponse", "/v1/dynamics", "/v1/dynamics/stream"} {
		resp, err := http.Post(client.BaseURL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var eb errorBody
		decErr := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d-byte body got status %d, want 413", path, len(huge), resp.StatusCode)
		}
		if decErr != nil || eb.Error == "" {
			t.Errorf("%s: 413 without a JSON error body (%v)", path, decErr)
		}
	}
	if _, err := client.Check(context.Background(), CheckRequest{Graph: mustDTO(t, constructions.Path(maxN)), Objective: "sum"}); err != nil {
		t.Fatalf("ordinary body after the cap: %v", err)
	}
}
