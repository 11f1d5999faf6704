// Package store is zmeshd's content-addressed artifact store: the on-disk
// persistence layer for sealed temporal checkpoints.
//
// Every artifact — temporal frame objects and checkpoint manifests alike —
// is addressed by the hex SHA-256 of its bytes, so identical frames dedup
// for free and a read can always verify what the disk handed back. Writes
// go through a temp file in the store's own tmp directory, are fsynced, and
// are renamed into place, so a crash mid-write leaves garbage in tmp/ but
// never a truncated object under its final name; the directory is fsynced
// after the rename, so a write that returned is on disk, name included.
// Layout under the root:
//
//	objects/<id[:2]>/<id>   frame objects, fanned out by the first id byte
//	checkpoints/<id>        sealed checkpoint manifests
//	tmp/                    in-flight writes (cleared on Open)
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ErrNotFound reports a content address with no artifact behind it.
var ErrNotFound = errors.New("store: artifact not found")

// ErrCorrupt reports an artifact whose bytes no longer hash to its address.
var ErrCorrupt = errors.New("store: artifact corrupt (content hash mismatch)")

// Store is a content-addressed artifact store rooted at one directory. It is
// safe for concurrent use: writes are atomic renames keyed by content, so
// two writers racing on the same bytes converge on the same object.
type Store struct {
	root string
}

// Open opens (creating if needed) the store rooted at dir and clears any
// in-flight temp files left behind by a crash.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "checkpoints", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	// Orphaned temp files are garbage by construction: anything that mattered
	// was renamed out before its write returned.
	tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, e := range tmps {
		os.Remove(filepath.Join(dir, "tmp", e.Name()))
	}
	// The objects/ and checkpoints/ entries must be durable before any put
	// into them is acknowledged.
	if err := syncDir(dir); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// validID reports whether id is a well-formed content address (64 lowercase
// hex characters). Everything else — including path separators and dots —
// is rejected before touching the filesystem.
func validID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) objectPath(id string) string {
	return filepath.Join(s.root, "objects", id[:2], id)
}

func (s *Store) checkpointPath(id string) string {
	return filepath.Join(s.root, "checkpoints", id)
}

// writeAtomic persists b at path via temp-write, fsync, rename, then fsyncs
// the directory holding the new entry — and, when the objects/<xx>/ fan-out
// directory had to be created, the directory holding that one too — so an
// acknowledged write survives a power loss, name included.
func (s *Store) writeAtomic(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "put-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if statErr != nil {
		if err := syncDir(filepath.Dir(dir)); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// PutObject persists b as a frame object and returns its content address.
// created is false when the object was already stored intact (the write is
// skipped — content addressing makes it byte-identical); an existing file
// that no longer hashes to its id is rewritten and counts as created.
func (s *Store) PutObject(b []byte) (id string, created bool, err error) {
	return s.put(b, s.objectPath, "object")
}

// GetObject returns the bytes of the frame object at id, re-hashing them to
// catch on-disk corruption.
func (s *Store) GetObject(id string) ([]byte, error) {
	return s.get(id, s.objectPath, "object")
}

// PutManifest persists manifest bytes as a sealed checkpoint and returns the
// checkpoint id (the manifest's content address). A corrupt existing copy is
// rewritten, as in PutObject.
func (s *Store) PutManifest(b []byte) (id string, err error) {
	id, _, err = s.put(b, s.checkpointPath, "checkpoint")
	return id, err
}

// GetManifest returns the manifest bytes of checkpoint id, re-hashing them
// to catch on-disk corruption.
func (s *Store) GetManifest(id string) ([]byte, error) {
	return s.get(id, s.checkpointPath, "checkpoint")
}

// contentID is the content address of b: hex SHA-256.
func contentID(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// put stores b under its content address at pathOf(id), skipping the write
// only when the file already there hashes to that id. kind names the
// artifact in errors.
func (s *Store) put(b []byte, pathOf func(string) string, kind string) (id string, created bool, err error) {
	id = contentID(b)
	path := pathOf(id)
	if old, err := os.ReadFile(path); err == nil && contentID(old) == id {
		return id, false, nil
	}
	if err := s.writeAtomic(path, b); err != nil {
		return "", false, fmt.Errorf("store: put %s: %w", kind, err)
	}
	return id, true, nil
}

// get reads the artifact at pathOf(id) and verifies it still hashes to id.
func (s *Store) get(id string, pathOf func(string) string, kind string) ([]byte, error) {
	if !validID(id) {
		return nil, fmt.Errorf("store: %s id %q: %w", kind, id, ErrNotFound)
	}
	b, err := os.ReadFile(pathOf(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: %s %s: %w", kind, id, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: get %s: %w", kind, err)
	}
	if contentID(b) != id {
		return nil, fmt.Errorf("store: %s %s: %w", kind, id, ErrCorrupt)
	}
	return b, nil
}

// ListCheckpoints returns the ids of every sealed checkpoint, sorted.
func (s *Store) ListCheckpoints() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "checkpoints"))
	if err != nil {
		return nil, fmt.Errorf("store: list checkpoints: %w", err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if validID(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}
