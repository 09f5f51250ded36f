package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func sampleAutopsy(app string) *Autopsy {
	return &Autopsy{
		App:      app,
		Trigger:  "app-crash",
		Class:    "fail-stop",
		Culprit:  "packet-in seq=7 dpid=3",
		Policy:   "rollback-replay",
		Decision: "restore+replay",
		Outcome:  "recovered",
		Timeline: (&Timeline{}).Phases(),
		Records: map[string][]Record{
			"crashpad": {{Seq: 1, Layer: LayerCrashPad, Kind: KindPolicyDecision, App: app}},
		},
	}
}

// readLog parses every line of dir's autopsy log; each must be one
// complete report.
func readLog(t *testing.T, dir string) []Autopsy {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "autopsies.jsonl"))
	if err != nil {
		t.Fatalf("autopsy log: %v", err)
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatalf("log ends in a torn line: %q", data[max(0, len(data)-40):])
	}
	var out []Autopsy
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var a Autopsy
		if err := json.Unmarshal(line, &a); err != nil {
			t.Fatalf("line %d does not parse: %v", i+1, err)
		}
		out = append(out, a)
	}
	return out
}

func logIDs(as []Autopsy) []int {
	ids := make([]int, len(as))
	for i, a := range as {
		ids[i] = a.ID
	}
	return ids
}

func TestStorePersistsParseableAutopsies(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, 8)
	defer s.Close()
	for i, app := range []string{"lswitch", "router", "fw"} {
		if id := s.Add(sampleAutopsy(app)); id != i+1 {
			t.Fatalf("id = %d, want %d", id, i+1)
		}
	}
	back := readLog(t, dir)
	if ids := logIDs(back); !slices.Equal(ids, []int{1, 2, 3}) {
		t.Fatalf("log ids %v, want [1 2 3]", ids)
	}
	if back[0].App != "lswitch" || back[2].App != "fw" || back[0].OpenedUnixNano == 0 {
		t.Fatalf("round trip lost fields: %+v", back[0])
	}
	if len(back[1].Timeline) != int(NumPhases) {
		t.Fatalf("persisted timeline has %d phases, want %d", len(back[1].Timeline), NumPhases)
	}
	if got := s.Persisted.Load(); got != 3 {
		t.Fatalf("Persisted=%d, want 3", got)
	}
}

// TestStoreContinuesIDsAcrossIncarnations: a restarted controller on
// the same directory appends its reports after its predecessor's, with
// the ids going on from the last one.
func TestStoreContinuesIDsAcrossIncarnations(t *testing.T) {
	dir := t.TempDir()
	first := NewStore(dir, 8)
	first.Add(sampleAutopsy("lswitch"))
	first.Add(sampleAutopsy("router"))
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second := NewStore(dir, 8)
	defer second.Close()
	if id := second.Add(sampleAutopsy("controller")); id != 3 {
		t.Fatalf("second incarnation id = %d, want 3", id)
	}
	back := readLog(t, dir)
	if ids := logIDs(back); !slices.Equal(ids, []int{1, 2, 3}) || back[2].App != "controller" {
		t.Fatalf("log ids %v (last app %q), want [1 2 3] ending in controller", ids, back[len(back)-1].App)
	}
}

// TestStoreCutsTornTail: a crash in the middle of an append leaves a
// line without its newline. The next incarnation cuts it, continues the
// ids after the last complete line, and its first append parses. The
// last complete line is longer than one read of the tail.
func TestStoreCutsTornTail(t *testing.T) {
	big := sampleAutopsy("router")
	big.Notes = []string{strings.Repeat("n", 80<<10)}
	for _, c := range []struct {
		name    string
		before  []*Autopsy
		wantIDs []int
	}{
		{"after two reports", []*Autopsy{sampleAutopsy("lswitch"), big}, []int{1, 2, 3}},
		{"only a torn line", nil, []int{1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := NewStore(dir, 8)
			for _, a := range c.before {
				s.Add(a)
			}
			s.Close()
			line, _ := json.Marshal(sampleAutopsy("torn"))
			f, err := os.OpenFile(filepath.Join(dir, "autopsies.jsonl"), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(line[:len(line)/2])
			f.Close()

			s = NewStore(dir, 8)
			defer s.Close()
			s.Add(sampleAutopsy("after"))
			back := readLog(t, dir)
			if ids := logIDs(back); !slices.Equal(ids, c.wantIDs) || back[len(back)-1].App != "after" {
				t.Fatalf("log ids %v ending in %q, want %v ending in after", ids, back[len(back)-1].App, c.wantIDs)
			}
		})
	}
}

// TestStoreConcurrentAdds: appends from many goroutines land as whole
// lines, with unique ids that increase down the log.
func TestStoreConcurrentAdds(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Add(sampleAutopsy(fmt.Sprintf("app%d", g)))
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ids := logIDs(readLog(t, dir))
	if len(ids) != 400 {
		t.Fatalf("%d lines, want 400", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("line %d has id %d after %d", i+1, ids[i], ids[i-1])
		}
	}
}

// fullReport is an autopsy with the most evidence Crash-Pad attaches:
// 16 records from each of the five layers.
func fullReport() *Autopsy {
	a := sampleAutopsy("fw")
	a.Records = make(map[string][]Record, NumLayers)
	for l := Layer(0); l < NumLayers; l++ {
		for i := 0; i < 16; i++ {
			a.Records[l.String()] = append(a.Records[l.String()], Record{
				Seq: uint64(1000 + i), TS: 1700000000000000000 + int64(i), Layer: l, Kind: KindReplay,
				App: "fw", Trace: 0xabcdef, Txn: 42, EvSeq: uint64(500 + i), DPID: 3, N: 2,
				Note: "class=fail-stop policy=absolute-compromise",
			})
		}
	}
	return a
}

func BenchmarkStoreAdd(b *testing.B) {
	s := NewStore(b.TempDir(), 0)
	defer s.Close()
	a := fullReport()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OpenedUnixNano = 0
		s.Add(a)
	}
}

func TestStoreBoundsWindow(t *testing.T) {
	s := NewStore("", 3)
	for i := 0; i < 5; i++ {
		s.Add(sampleAutopsy("a"))
	}
	all := s.All()
	if len(all) != 3 {
		t.Fatalf("retained %d autopsies, want 3", len(all))
	}
	if all[0].ID != 3 || all[2].ID != 5 {
		t.Fatalf("window should keep newest ids, got %d..%d", all[0].ID, all[2].ID)
	}
	if s.Get(5) == nil || s.Get(1) != nil {
		t.Fatalf("Get window mismatch")
	}
}

func TestStoreFillsMissingTimeline(t *testing.T) {
	s := NewStore("", 4)
	s.Add(&Autopsy{App: "x", Trigger: "chaos-invariant"})
	a := s.All()[0]
	if len(a.Timeline) != int(NumPhases) {
		t.Fatalf("store must backfill a complete timeline, got %d phases", len(a.Timeline))
	}
}

func TestStoreHTTPHandler(t *testing.T) {
	s := NewStore("", 4)
	s.Add(sampleAutopsy("lswitch"))
	s.Add(sampleAutopsy("router"))

	// Human text by default.
	rr := httptest.NewRecorder()
	s.HTTPHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/autopsy", nil))
	body := rr.Body.String()
	if !strings.Contains(body, "autopsy #1: lswitch") || !strings.Contains(body, "autopsy #2: router") {
		t.Fatalf("text body missing autopsies:\n%s", body)
	}
	if !strings.Contains(body, "checkpoint-restore") {
		t.Fatalf("text body missing timeline:\n%s", body)
	}

	// JSON for machines.
	rr = httptest.NewRecorder()
	s.HTTPHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/autopsy?format=json", nil))
	var list []*Autopsy
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatalf("json body does not parse: %v", err)
	}
	if len(list) != 2 {
		t.Fatalf("json holds %d autopsies, want 2", len(list))
	}

	// Single report by id.
	rr = httptest.NewRecorder()
	s.HTTPHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/autopsy?id=2&format=json", nil))
	list = nil
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil || len(list) != 1 || list[0].App != "router" {
		t.Fatalf("id query returned %v (err %v)", list, err)
	}

	// Missing id is a 404.
	rr = httptest.NewRecorder()
	s.HTTPHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/autopsy?id=99", nil))
	if rr.Code != 404 {
		t.Fatalf("missing id status = %d, want 404", rr.Code)
	}

	// Nil store serves a 404 rather than panicking.
	rr = httptest.NewRecorder()
	(*Store)(nil).HTTPHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/autopsy", nil))
	if rr.Code != 404 {
		t.Fatalf("nil store status = %d, want 404", rr.Code)
	}
}
