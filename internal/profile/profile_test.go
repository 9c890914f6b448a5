package profile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles: with both files named, stop leaves a CPU and
// an allocation profile behind; with neither, Start and stop write nothing.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty profile", f, err)
		}
	}
	stop, err = Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartReportsAnUnwritableFile: a CPU profile path that cannot be
// created is an error before anything starts.
func TestStartReportsAnUnwritableFile(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof"), ""); err == nil {
		t.Fatal("Start accepted a path in a missing directory")
	}
}
