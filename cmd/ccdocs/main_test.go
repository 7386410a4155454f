package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckTestNamesFlagsUnknown: a cited test resolves when some
// *_test.go declares it (a subtest path cites its parent); a citation
// of a test no file declares is reported with its doc and line.
func TestCheckTestNamesFlagsUnknown(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("pkg/a_test.go", "package pkg\n\nimport \"testing\"\n\nfunc TestKept(t *testing.T) {}\n")
	for _, doc := range testNameDocs {
		write(doc, "")
	}
	write("README.md", "`TestKept/case` is cited,\nbut `TestGone` was deleted; plain TestProse is not a citation.\n")
	write("CHANGES.md", "`TestHistory` is history.\n")

	got := checkTestNames(root)
	if len(got) != 1 || !strings.HasPrefix(got[0], "README.md:2:") || !strings.Contains(got[0], "TestGone") {
		t.Fatalf("problems = %q, want one for TestGone at README.md:2", got)
	}
}
