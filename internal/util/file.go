package util

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrDirSync marks a WriteFileAtomic error from syncing the directory after
// the rename.
var ErrDirSync = errors.New("renamed, but the directory sync failed")

// WriteFileAtomic writes data to path via a temp file in the same directory
// and an atomic rename, so readers see either the old contents or the new
// ones, never a torn write. The temp file is synced before the rename and
// the directory after it, so once it returns nil the new contents survive
// a power loss. An error wrapping ErrDirSync comes after the rename: the
// new contents are in place at path, but the rename may not survive a
// power loss. Any other error leaves path as it was. Every persisted
// artifact goes through it.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("temp file in %s: %w", dir, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("renaming into %s: %w", path, err)
	}
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("%s: %w: %w", path, ErrDirSync, err)
	}
	return nil
}
