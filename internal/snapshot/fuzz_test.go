package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapshotRead feeds arbitrary bytes to Read through a file on
// disk. Read must never panic: every input either yields a snapshot
// that re-encodes, or a *LoadError naming why the file is unusable.
// Seeds are a valid snapshot, its truncations at several cut points
// (torn writes) and small malformed envelopes.
func FuzzSnapshotRead(f *testing.F) {
	valid, err := sample().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{1, 2, len(valid) / 4, len(valid) / 2, len(valid) - 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	for _, seed := range []string{
		"",
		"null",
		"{}",
		`{"format":1}`,
		`{"format":999,"payload":{}}`,
		`{"format":1,"payload":null,"checksum":""}`,
		`{"format":1,"payload":[],"checksum":"x"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := Read(path)
		if err != nil {
			var lerr *LoadError
			if !errors.As(err, &lerr) {
				t.Fatalf("Read returned %T, want *LoadError: %v", err, err)
			}
			if lerr.Reason == "" || lerr.Path != path {
				t.Fatalf("LoadError without reason or path: %+v", lerr)
			}
			return
		}
		if snap == nil || snap.Payload == nil {
			t.Fatal("Read accepted the file but returned no payload")
		}
		if snap.Format != FormatVersion {
			t.Fatalf("Read accepted format %d, this build reads %d", snap.Format, FormatVersion)
		}
		if _, err := snap.Encode(); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
	})
}
