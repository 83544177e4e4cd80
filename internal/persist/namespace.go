package persist

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// namespaceDir is the subdirectory of a data-directory root that
// holds one namespace (one durable session) per child directory. The
// default session keeps the root itself, so a pre-namespacing data
// directory recovers unchanged.
const namespaceDir = "sessions"

// Namespace returns the data directory for the named session under
// root: root/sessions/<name>.
func Namespace(root, name string) string {
	return filepath.Join(root, namespaceDir, name)
}

// MkdirAll is os.MkdirAll that also fsyncs the parent of each
// directory it makes, so the new entries survive a crash once it
// returns. A session's create makes its namespace with it.
func MkdirAll(dir string) error {
	if fi, err := os.Stat(dir); err == nil {
		if !fi.IsDir() {
			return &fs.PathError{Op: "mkdir", Path: dir, Err: syscall.ENOTDIR}
		}
		return nil
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := MkdirAll(parent); err != nil {
			return err
		}
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil // made concurrently
		}
		return err
	}
	syncDir(parent)
	return nil
}

// ListNamespaces returns the session names that have a namespace
// under root, sorted. A root without a sessions/ directory (including
// any pre-namespacing data directory) is an empty list, not an error.
func ListNamespaces(root string) ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(root, namespaceDir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
