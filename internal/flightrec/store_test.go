package flightrec

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

func TestStorePersistsParseableAutopsies(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, 8)
	id := s.Add(sampleAutopsy("lswitch"))
	if id != 1 {
		t.Fatalf("first id = %d, want 1", id)
	}
	path := filepath.Join(dir, "autopsy-000001.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("autopsy not persisted: %v", err)
	}
	var back Autopsy
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("persisted autopsy does not parse: %v", err)
	}
	if back.App != "lswitch" || back.ID != 1 || back.OpenedUnixNano == 0 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if len(back.Timeline) != int(NumPhases) {
		t.Fatalf("persisted timeline has %d phases, want %d", len(back.Timeline), NumPhases)
	}
	if got := s.Persisted.Load(); got != 1 {
		t.Fatalf("Persisted=%d, want 1", got)
	}
}

// TestStoreContinuesIDsAcrossIncarnations: a restarted controller on
// the same directory adds its reports after its predecessor's instead
// of overwriting autopsy-000001.json.
func TestStoreContinuesIDsAcrossIncarnations(t *testing.T) {
	dir := t.TempDir()
	if id := NewStore(dir, 8).Add(sampleAutopsy("lswitch")); id != 1 {
		t.Fatalf("first incarnation id = %d, want 1", id)
	}
	// A write cut short by a crash leaves a .tmp that must not count.
	if err := os.WriteFile(filepath.Join(dir, "autopsy-000009.json.tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if id := NewStore(dir, 8).Add(sampleAutopsy("controller")); id != 2 {
		t.Fatalf("second incarnation id = %d, want 2", id)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "autopsy-*.json"))
	if len(files) != 2 {
		t.Fatalf("two incarnations left %d autopsy files, want 2: %v", len(files), files)
	}
	for i, app := range []string{"lswitch", "controller"} {
		var back Autopsy
		data, err := os.ReadFile(files[i])
		if err == nil {
			err = json.Unmarshal(data, &back)
		}
		if err != nil || back.App != app || back.ID != i+1 {
			t.Fatalf("%s: app %q id %d (err %v), want %q id %d", files[i], back.App, back.ID, err, app, i+1)
		}
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
