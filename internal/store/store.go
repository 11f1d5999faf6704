// Package store is zmeshd's content-addressed artifact store: the on-disk
// persistence layer for sealed temporal checkpoints.
//
// Every artifact — temporal frame objects and checkpoint manifests alike —
// is addressed by the hex SHA-256 of its bytes, so identical frames dedup
// for free and a read can always verify what the disk handed back. Writes
// go through a temp file in the store's own tmp directory, are fsynced, and
// are renamed into place, so a crash mid-write leaves garbage in tmp/ but
// never a truncated object under its final name. Layout under the root:
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

// writeAtomic persists b at path via temp-write, fsync, rename.
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
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// PutObject persists b as a frame object and returns its content address.
// created is false when an object with the same content already existed
// (the write is skipped — content addressing makes it byte-identical).
func (s *Store) PutObject(b []byte) (id string, created bool, err error) {
	sum := sha256.Sum256(b)
	id = hex.EncodeToString(sum[:])
	path := s.objectPath(id)
	if _, err := os.Stat(path); err == nil {
		return id, false, nil
	}
	if err := s.writeAtomic(path, b); err != nil {
		return "", false, fmt.Errorf("store: put object: %w", err)
	}
	return id, true, nil
}

// GetObject returns the bytes of the frame object at id, re-hashing them to
// catch on-disk corruption.
func (s *Store) GetObject(id string) ([]byte, error) {
	if !validID(id) {
		return nil, fmt.Errorf("store: object id %q: %w", id, ErrNotFound)
	}
	b, err := os.ReadFile(s.objectPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: object %s: %w", id, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: get object: %w", err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != id {
		return nil, fmt.Errorf("store: object %s: %w", id, ErrCorrupt)
	}
	return b, nil
}

// PutManifest persists manifest bytes as a sealed checkpoint and returns the
// checkpoint id (the manifest's content address).
func (s *Store) PutManifest(b []byte) (id string, err error) {
	sum := sha256.Sum256(b)
	id = hex.EncodeToString(sum[:])
	path := s.checkpointPath(id)
	if _, err := os.Stat(path); err == nil {
		return id, nil
	}
	if err := s.writeAtomic(path, b); err != nil {
		return "", fmt.Errorf("store: put manifest: %w", err)
	}
	return id, nil
}

// GetManifest returns the manifest bytes of checkpoint id, re-hashing them
// to catch on-disk corruption.
func (s *Store) GetManifest(id string) ([]byte, error) {
	if !validID(id) {
		return nil, fmt.Errorf("store: checkpoint id %q: %w", id, ErrNotFound)
	}
	b, err := os.ReadFile(s.checkpointPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: checkpoint %s: %w", id, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: get manifest: %w", err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != id {
		return nil, fmt.Errorf("store: checkpoint %s: %w", id, ErrCorrupt)
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
