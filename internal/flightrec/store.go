package flightrec

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"legosdn/internal/metrics"
)

// Store collects autopsies: a bounded in-memory window for
// /debug/autopsy plus optional JSON persistence for postmortems. A nil
// *Store no-ops, matching the Recorder convention.
type Store struct {
	mu        sync.Mutex
	dir       string
	keep      int
	nextID    int
	autopsies []*Autopsy

	// Persisted counts autopsy files written; PersistErrors counts
	// failed writes (the autopsy stays available in memory either way).
	Persisted     metrics.Counter
	PersistErrors metrics.Counter
}

// NewStore creates a Store. dir == "" disables persistence; keep <= 0
// defaults to 32 in-memory autopsies. Ids continue after the highest
// autopsy file already in dir, so a restarted controller on the same
// state directory adds to its predecessor's reports instead of
// overwriting them.
func NewStore(dir string, keep int) *Store {
	if keep <= 0 {
		keep = 32
	}
	s := &Store{dir: dir, keep: keep}
	// A missing directory holds no reports yet; an unreadable one fails
	// the first persist, which PersistErrors counts.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		num, isReport := strings.CutPrefix(e.Name(), "autopsy-")
		num, isJSON := strings.CutSuffix(num, ".json")
		if id, err := strconv.Atoi(num); isReport && isJSON && err == nil && id > s.nextID {
			s.nextID = id
		}
	}
	return s
}

// Instrument registers the store's counters into reg.
func (s *Store) Instrument(reg *metrics.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.RegisterCounter("legosdn_autopsies_persisted_total",
		"autopsy reports written to the autopsy directory", &s.Persisted)
	reg.RegisterCounter("legosdn_autopsy_persist_errors_total",
		"autopsy reports that failed to persist", &s.PersistErrors)
}

// Add assigns the autopsy an id, stamps its open time if unset, keeps
// it in the bounded window, and persists it when a directory is
// configured. Returns the assigned id (0 on a nil store).
func (s *Store) Add(a *Autopsy) int {
	if s == nil || a == nil {
		return 0
	}
	if a.Timeline == nil {
		a.Timeline = (*Timeline)(nil).Phases()
	}
	s.mu.Lock()
	s.nextID++
	a.ID = s.nextID
	if a.OpenedUnixNano == 0 {
		a.OpenedUnixNano = time.Now().UnixNano()
	}
	s.autopsies = append(s.autopsies, a)
	if len(s.autopsies) > s.keep {
		s.autopsies = s.autopsies[len(s.autopsies)-s.keep:]
	}
	dir := s.dir
	s.mu.Unlock()

	if dir != "" {
		if err := s.persist(dir, a); err != nil {
			s.PersistErrors.Add(1)
		} else {
			s.Persisted.Add(1)
		}
	}
	return a.ID
}

func (s *Store) persist(dir string, a *Autopsy) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("autopsy-%06d.json", a.ID))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// All returns the retained autopsies, oldest first.
func (s *Store) All() []*Autopsy {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Autopsy(nil), s.autopsies...)
}

// Get returns the retained autopsy with the given id, or nil.
func (s *Store) Get(id int) *Autopsy {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.autopsies {
		if a.ID == id {
			return a
		}
	}
	return nil
}

// HTTPHandler serves the autopsy window: human text by default,
// ?format=json for machines, ?id=N for one report.
func (s *Store) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			http.Error(w, "autopsy store disabled", http.StatusNotFound)
			return
		}
		var payload []*Autopsy
		if idStr := r.URL.Query().Get("id"); idStr != "" {
			id, err := strconv.Atoi(idStr)
			if err != nil {
				http.Error(w, "bad id", http.StatusBadRequest)
				return
			}
			a := s.Get(id)
			if a == nil {
				http.Error(w, "no such autopsy", http.StatusNotFound)
				return
			}
			payload = []*Autopsy{a}
		} else {
			payload = s.All()
		}

		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(payload)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(payload) == 0 {
			fmt.Fprintln(w, "no autopsies recorded")
			return
		}
		for _, a := range payload {
			fmt.Fprintln(w, a.Render())
		}
	})
}
