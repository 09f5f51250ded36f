package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"legosdn/internal/metrics"
)

// Store collects autopsies: a bounded in-memory window for
// /debug/autopsy plus an optional append-only log for postmortems,
// <dir>/autopsies.jsonl, one compact JSON report per line. A nil *Store
// no-ops, matching the Recorder convention.
type Store struct {
	mu        sync.Mutex
	dir       string
	keep      int
	nextID    int
	log       *os.File // opened O_APPEND by the first Add, closed by Close
	autopsies []*Autopsy

	// Persisted counts autopsies appended to the log; PersistErrors
	// counts failed appends (the autopsy stays available in memory
	// either way).
	Persisted     metrics.Counter
	PersistErrors metrics.Counter
}

const logName = "autopsies.jsonl"

// NewStore creates a Store. dir == "" disables persistence; keep <= 0
// defaults to 32 in-memory autopsies. Ids continue after the last
// report already in dir's log, so a restarted controller on the same
// state directory adds to its predecessor's reports.
func NewStore(dir string, keep int) *Store {
	if keep <= 0 {
		keep = 32
	}
	s := &Store{dir: dir, keep: keep}
	if dir != "" {
		s.nextID = lastID(filepath.Join(dir, logName))
	}
	return s
}

// lastID returns the id of the log's last complete line, reading back
// from the end only as far as that line starts. A torn tail (a line a
// crash stopped mid-write: no newline yet) is cut back to that line, so
// the next append starts a line of its own. A missing log holds no
// reports; an unwritable one fails the first append, which
// PersistErrors counts.
func lastID(path string) int {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0
	}
	defer f.Close()
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0
	}
	var tail []byte // the file from off to end
	for off := end; off > 0; {
		n := min(off, 32<<10)
		off -= n
		chunk := make([]byte, n, n+int64(len(tail)))
		if _, err := f.ReadAt(chunk, off); err != nil {
			return 0
		}
		tail = append(chunk, tail...)
		nl := bytes.LastIndexByte(tail, '\n')
		start := bytes.LastIndexByte(tail[:max(nl, 0)], '\n') + 1
		if nl < 0 || start == 0 && off > 0 {
			continue // the last complete line starts further back
		}
		if cut := off + int64(nl) + 1; cut < end {
			_ = f.Truncate(cut)
		}
		var id int // json.Marshal writes it first: no need to parse the rest
		_, _ = fmt.Fscanf(bytes.NewReader(tail[start:nl]), `{"id":%d`, &id)
		return id
	}
	_ = f.Truncate(0) // no complete line: all of it is torn
	return 0
}

// Instrument registers the store's counters into reg.
func (s *Store) Instrument(reg *metrics.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.RegisterCounter("legosdn_autopsies_persisted_total",
		"autopsy reports appended to the autopsy log", &s.Persisted)
	reg.RegisterCounter("legosdn_autopsy_persist_errors_total",
		"autopsy reports that failed to persist", &s.PersistErrors)
}

// Add assigns the autopsy an id, stamps its open time if unset, keeps
// it in the bounded window, and appends it to the log when a directory
// is configured. Returns the assigned id (0 on a nil store).
func (s *Store) Add(a *Autopsy) int {
	if s == nil || a == nil {
		return 0
	}
	if a.Timeline == nil {
		a.Timeline = (*Timeline)(nil).Phases()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	a.ID = s.nextID
	if a.OpenedUnixNano == 0 {
		a.OpenedUnixNano = time.Now().UnixNano()
	}
	s.autopsies = append(s.autopsies, a)
	if len(s.autopsies) > s.keep {
		s.autopsies = s.autopsies[len(s.autopsies)-s.keep:]
	}
	if s.dir != "" {
		if err := s.persist(a); err != nil {
			s.PersistErrors.Add(1)
		} else {
			s.Persisted.Add(1)
		}
	}
	return a.ID
}

// persist appends a as one line in one write(2), under s.mu so that ids
// increase down the log; a crash can leave only the last line torn.
func (s *Store) persist(a *Autopsy) error {
	line, err := json.Marshal(a)
	if err == nil && s.log == nil {
		if err = os.MkdirAll(s.dir, 0o755); err == nil {
			s.log, err = os.OpenFile(filepath.Join(s.dir, logName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		}
	}
	if err == nil {
		_, err = s.log.Write(append(line, '\n'))
	}
	return err
}

// Close closes the autopsy log; a later Add reopens it. A failed close
// counts in PersistErrors too.
func (s *Store) Close() (err error) {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		err, s.log = s.log.Close(), nil
	}
	if err != nil {
		s.PersistErrors.Add(1)
	}
	return err
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
