// Snapshot namespace: alongside finished reports, the store keeps
// warmup-phase machine snapshots (the OS half of a machine part way
// through its warmup) — the rungs of the snapshot ladder — keyed by
// (warmup prefix hash, reference depth). A rung written by any
// process against the same store directory lets any later sweep, or a
// restarted seesaw-served daemon, resume the warmup from that depth
// instead of replaying it.
//
// Layout: snap/<prefix[:2]>/<prefix>/<refs>.snap, where prefix is
// machine.Config.PrefixHash() (which folds in the snapshot schema
// version) and refs is the decimal reference depth. The same
// crash-safety rules as reports apply: temp-file-and-rename writes, and
// anything unreadable is a miss that gets recomputed, never an error
// that stops a sweep.
package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"seesaw/internal/machine"
)

// snapDirName roots the snapshot namespace inside the store directory,
// keeping rungs apart from the report shards (which use hex names).
const snapDirName = "snap"

// validPrefix gates prefix strings before they become path components:
// exactly the 64 lowercase-hex characters PrefixHash produces.
func validPrefix(prefix string) bool {
	if len(prefix) != 64 {
		return false
	}
	for _, c := range prefix {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// snapDir returns the directory holding one prefix's rungs.
func (s *Store) snapDir(prefix string) string {
	return filepath.Join(s.dir, snapDirName, prefix[:2], prefix)
}

// snapPath returns the entry file for one rung.
func (s *Store) snapPath(prefix string, refs int) string {
	return filepath.Join(s.snapDir(prefix), strconv.Itoa(refs)+".snap")
}

// PutSnapshot persists one rung: encoded snapshot bytes for the given
// warmup prefix at the given reference depth. Writes go through a temp
// file and rename, so concurrent writers of the same rung are safe
// (both wrote identical bytes — the codec is deterministic) and readers
// never observe a partial rung. When the store carries a snapshot size
// budget, oldest rungs are evicted afterwards to stay under it.
func (s *Store) PutSnapshot(prefix string, refs int, data []byte) error {
	if !validPrefix(prefix) {
		return errors.New("store: malformed snapshot prefix")
	}
	if refs < 0 {
		return errors.New("store: negative snapshot depth")
	}
	path := s.snapPath(prefix, refs)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	s.count(func(st *Stats) { st.SnapPuts++ })
	s.enforceSnapBudget()
	return nil
}

// GetSnapshot returns the rung stored for (prefix, refs), or false on
// any miss. The bytes are returned as stored; decoding (and its
// integrity checking) is machine.UnmarshalSnapshot's job, and a rung
// that fails to decode should be dropped with DropSnapshot so it gets
// recomputed.
func (s *Store) GetSnapshot(prefix string, refs int) ([]byte, bool) {
	if !validPrefix(prefix) {
		s.count(func(st *Stats) { st.SnapMisses++ })
		return nil, false
	}
	data, err := os.ReadFile(s.snapPath(prefix, refs))
	if err != nil {
		s.count(func(st *Stats) { st.SnapMisses++ })
		return nil, false
	}
	s.count(func(st *Stats) { st.SnapHits++ })
	return data, true
}

// DeepestSnapshot returns the deepest rung stored for prefix at or
// below maxRefs — the natural resume point for a run that needs the
// warmup prefix up to maxRefs. Rungs that fail to read are skipped in
// favor of the next-deepest. Returns ok=false when no usable rung
// exists.
func (s *Store) DeepestSnapshot(prefix string, maxRefs int) (data []byte, refs int, ok bool) {
	if !validPrefix(prefix) {
		s.count(func(st *Stats) { st.SnapMisses++ })
		return nil, 0, false
	}
	ents, err := os.ReadDir(s.snapDir(prefix))
	if err != nil {
		s.count(func(st *Stats) { st.SnapMisses++ })
		return nil, 0, false
	}
	var depths []int
	for _, e := range ents {
		d, derr := parseSnapName(e.Name())
		if derr != nil || e.IsDir() {
			continue
		}
		if d <= maxRefs {
			depths = append(depths, d)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(depths)))
	for _, d := range depths {
		if data, err := os.ReadFile(s.snapPath(prefix, d)); err == nil {
			s.count(func(st *Stats) { st.SnapHits++ })
			return data, d, true
		}
	}
	s.count(func(st *Stats) { st.SnapMisses++ })
	return nil, 0, false
}

// DropSnapshot removes a rung that proved unusable (failed to decode,
// resumed into a machine that errored) so it is recomputed rather than
// tripping every future resume.
func (s *Store) DropSnapshot(prefix string, refs int) {
	if !validPrefix(prefix) {
		return
	}
	path := s.snapPath(prefix, refs)
	if err := os.Remove(path); err == nil {
		if s.Logger != nil {
			s.Logger.Printf("store: dropping unusable snapshot %s", path)
		}
		s.count(func(st *Stats) { st.SnapPruned++ })
	}
}

// SnapLen walks the snapshot namespace and returns how many rungs it
// holds — a diagnostic for tests and the health endpoint.
func (s *Store) SnapLen() int {
	n := 0
	filepath.WalkDir(filepath.Join(s.dir, snapDirName), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".snap" {
			n++
		}
		return nil
	})
	return n
}

// parseSnapName extracts the reference depth from a rung file name.
func parseSnapName(name string) (int, error) {
	base, found := strings.CutSuffix(name, ".snap")
	if !found {
		return 0, errors.New("not a snapshot entry")
	}
	d, err := strconv.Atoi(base)
	if err != nil || d < 0 || strconv.Itoa(d) != base {
		return 0, errors.New("malformed snapshot depth")
	}
	return d, nil
}

// gcSnapshots sweeps the snapshot namespace on Open: orphaned temp
// files from crashed writers, entries with malformed names, and rungs
// whose header carries a different snapshot schema version than the
// running binary's are all removed. The sweep reads only each file's
// fixed-size header, so opening a large store stays cheap.
func (s *Store) gcSnapshots() {
	root := filepath.Join(s.dir, snapDirName)
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		prune := func(why string) {
			if s.Logger != nil {
				s.Logger.Printf("store: pruning %s snapshot %s", why, path)
			}
			if os.Remove(path) == nil {
				s.count(func(st *Stats) { st.SnapPruned++ })
			}
		}
		if strings.Contains(name, ".tmp-") {
			prune("orphaned temp")
			return nil
		}
		if _, err := parseSnapName(name); err != nil {
			prune("misnamed")
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		header := make([]byte, 32)
		n, _ := f.Read(header)
		f.Close()
		v, verr := machine.PeekSnapshotVersion(header[:n])
		if verr != nil {
			prune("corrupt-header")
			return nil
		}
		if v != machine.SnapshotSchemaVersion {
			prune("stale-schema")
		}
		return nil
	})
}

// SetSnapBudget caps the snapshot namespace's total size in bytes;
// zero (the default) means unlimited. When a PutSnapshot pushes the
// namespace over the cap, the oldest rungs by modification time are
// evicted until it fits — rungs are pure caches of recomputable work,
// so eviction only costs future warmup time. The budget is enforced
// once immediately.
func (s *Store) SetSnapBudget(bytes int64) {
	s.mu.Lock()
	s.snapBudget = bytes
	s.mu.Unlock()
	s.enforceSnapBudget()
}

// enforceSnapBudget evicts oldest-first until the namespace fits the
// budget. The newest rung always survives, even if it alone exceeds the
// budget — evicting the rung just written would make the ladder
// thrash.
func (s *Store) enforceSnapBudget() {
	s.mu.Lock()
	budget := s.snapBudget
	s.mu.Unlock()
	if budget <= 0 {
		return
	}
	type rung struct {
		path  string
		size  int64
		mtime int64
	}
	var rungs []rung
	var total int64
	filepath.WalkDir(filepath.Join(s.dir, snapDirName), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".snap" {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		rungs = append(rungs, rung{path: path, size: info.Size(), mtime: info.ModTime().UnixNano()})
		total += info.Size()
		return nil
	})
	if total <= budget {
		return
	}
	sort.Slice(rungs, func(i, j int) bool { return rungs[i].mtime < rungs[j].mtime })
	for _, r := range rungs[:len(rungs)-1] {
		if total <= budget {
			break
		}
		if err := os.Remove(r.path); err == nil {
			total -= r.size
			s.count(func(st *Stats) { st.SnapEvicted++ })
			if s.Logger != nil {
				s.Logger.Printf("store: evicting snapshot %s (%d bytes) to fit budget", r.path, r.size)
			}
		}
	}
}
