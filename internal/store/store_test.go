package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestObjectRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("temporal frame bytes")
	id, created, err := s.PutObject(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first put reported created=false")
	}
	want := sha256.Sum256(payload)
	if id != hex.EncodeToString(want[:]) {
		t.Fatalf("id = %s, want content hash", id)
	}
	got, err := s.GetObject(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestObjectDedup(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id1, created1, err := s.PutObject([]byte("same bytes"))
	if err != nil {
		t.Fatal(err)
	}
	id2, created2, err := s.PutObject([]byte("same bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("ids differ for identical content: %s vs %s", id1, id2)
	}
	if !created1 || created2 {
		t.Fatalf("created flags = %v, %v; want true, false", created1, created2)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	oid, _, err := s.PutObject([]byte("frame"))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := s.PutManifest([]byte("manifest"))
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a daemon restart: a fresh Store over the same root must serve
	// both artifacts and list the checkpoint.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := s2.GetObject(oid); err != nil || string(b) != "frame" {
		t.Fatalf("GetObject after reopen = %q, %v", b, err)
	}
	if b, err := s2.GetManifest(mid); err != nil || string(b) != "manifest" {
		t.Fatalf("GetManifest after reopen = %q, %v", b, err)
	}
	ids, err := s2.ListCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != mid {
		t.Fatalf("ListCheckpoints = %v, want [%s]", ids, mid)
	}
}

func TestOpenClearsTmp(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "tmp", "put-orphan")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan temp file survived reopen: %v", err)
	}
}

func TestBadIDRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{
		"",
		"short",
		"../../../../etc/passwd",
		strings.Repeat("Z", 64),           // not hex
		strings.Repeat("a", 63),           // wrong length
		strings.Repeat("A", 64),           // uppercase hex
		"..%2f" + strings.Repeat("a", 59), // traversal attempt
		strings.Repeat("a", 31) + "/" + strings.Repeat("a", 32), // embedded separator
	} {
		if _, err := s.GetObject(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("GetObject(%q) = %v, want ErrNotFound", id, err)
		}
		if _, err := s.GetManifest(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("GetManifest(%q) = %v, want ErrNotFound", id, err)
		}
	}
}

func TestMissingArtifact(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := strings.Repeat("ab", 32)
	if _, err := s.GetObject(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetObject = %v, want ErrNotFound", err)
	}
	if _, err := s.GetManifest(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetManifest = %v, want ErrNotFound", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.PutObject([]byte("pristine"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", id[:2], id)
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetObject(id); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetObject on tampered bytes = %v, want ErrCorrupt", err)
	}
	// Putting the original bytes again repairs the object.
	if _, created, err := s.PutObject([]byte("pristine")); err != nil || !created {
		t.Fatalf("PutObject over a corrupt object: created=%v err=%v, want a rewrite", created, err)
	}
	if b, err := s.GetObject(id); err != nil || string(b) != "pristine" {
		t.Fatalf("GetObject after repair = %q, %v", b, err)
	}

	mid, err := s.PutManifest([]byte("sealed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoints", mid), []byte("bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetManifest(mid); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetManifest on tampered bytes = %v, want ErrCorrupt", err)
	}
	if _, err := s.PutManifest([]byte("sealed")); err != nil {
		t.Fatal(err)
	}
	if b, err := s.GetManifest(mid); err != nil || string(b) != "sealed" {
		t.Fatalf("GetManifest after repair = %q, %v", b, err)
	}
}

func TestListIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoints", "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := s.ListCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("ListCheckpoints = %v, want empty", ids)
	}
}
