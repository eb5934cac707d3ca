package tracerec

import (
	"fmt"
	"os"
	"path/filepath"
)

// Ext is the conventional file extension for encoded traces.
const Ext = ".bctrace"

// WriteFile encodes t and writes it to path, creating parent directories.
func WriteFile(path string, t *Trace) error {
	blob, err := Encode(t)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, blob, 0o644)
}

// ReadFile reads and decodes (hash-verifying) the trace at path.
func ReadFile(path string) (*Trace, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
