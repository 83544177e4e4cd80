package persist

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists dir's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestWriteFileAtomic checks both ends of an atomic write: a write
// that fails partway leaves neither the final file nor a temp behind,
// and leaves a file already there as it was; one that succeeds
// replaces the file and leaves no temp.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "network.csv")
	boom := errors.New("boom")
	failing := func(w io.Writer) error {
		if _, err := w.Write([]byte("J,0,1")); err != nil {
			return err
		}
		return boom
	}
	if err := WriteFileAtomic(path, failing); err != boom {
		t.Fatalf("failing write: err %v", err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("failing write left %v", names)
	}

	put := func(s string) error {
		return WriteFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		})
	}
	if err := put("old"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, failing); err != boom {
		t.Fatalf("failing write over a file: err %v", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "old" {
		t.Fatalf("after a failing write over it the file reads %q, %v", b, err)
	}
	if err := put("new"); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "new" {
		t.Fatalf("replaced file reads %q, %v", b, err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "network.csv" {
		t.Fatalf("directory holds %v, want only network.csv", names)
	}
}

// TestMkdirAll checks that MkdirAll makes a namespace and its missing
// parents, that a second call on it succeeds, and that a file in the
// way is an error.
func TestMkdirAll(t *testing.T) {
	root := filepath.Join(t.TempDir(), "data")
	dir := Namespace(root, "tenant")
	for i := 0; i < 2; i++ {
		if err := MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Fatalf("call %d: namespace not a directory: %v", i, err)
		}
	}
	if names, err := ListNamespaces(root); err != nil || len(names) != 1 || names[0] != "tenant" {
		t.Fatalf("namespaces %v, %v", names, err)
	}
	if err := os.WriteFile(Namespace(root, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MkdirAll(Namespace(root, "file")); err == nil {
		t.Fatal("a file in the namespace's place was accepted")
	}
}
