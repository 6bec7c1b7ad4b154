package mutants

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mutant is one entry of testdata/mutants.txt.
type mutant struct {
	name, why, file, old, new, run string
	pkgs                           []string
}

// catalogue reads the mutant catalogue at path.
func catalogue(t *testing.T, path string) []mutant {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		out  []mutant
		cur  map[string]string
		line int
	)
	flush := func() {
		if cur == nil {
			return
		}
		m := mutant{name: cur["name"], why: cur["why"], file: cur["file"], old: cur["old"], new: cur["new"], run: cur["run"], pkgs: strings.Fields(cur["pkg"])}
		if m.name == "" || m.why == "" || m.file == "" || m.old == "" || m.run == "" || len(m.pkgs) == 0 {
			t.Fatalf("%s: the block ending at line %d lacks a name, why, file, old, run or pkg", path, line)
		}
		out = append(out, m)
		cur = nil
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "#"):
			continue
		case strings.TrimSpace(text) == "":
			flush()
			continue
		}
		key, val, ok := strings.Cut(text, ":")
		if !ok {
			t.Fatalf("%s:%d: want \"key: value\", got %q", path, line, text)
		}
		val = strings.TrimSpace(val)
		if strings.HasPrefix(val, `"`) {
			if val, err = strconv.Unquote(val); err != nil {
				t.Fatalf("%s:%d: %v", path, line, err)
			}
		}
		if cur == nil {
			cur = map[string]string{}
		}
		if _, dup := cur[key]; dup {
			t.Fatalf("%s:%d: %s given twice in one block", path, line, key)
		}
		cur[key] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	flush()
	return out
}

// TestMutantsAreKilled applies each mutant of the catalogue through a
// `go test -overlay` on a copy of its file under t.TempDir(): the mutant
// must build, and its tests must then fail. A mutant whose fragment is not
// in its file exactly once, that does not build, or that passes fails this
// test.
func TestMutantsAreKilled(t *testing.T) {
	if os.Getenv("RPIVIDEO_MUTANTS") != "1" {
		t.Skip("set RPIVIDEO_MUTANTS=1 to build and test every mutant in testdata/mutants.txt")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mutants := catalogue(t, filepath.Join("testdata", "mutants.txt"))
	if len(mutants) < 8 {
		t.Fatalf("the catalogue holds %d mutants, want at least 8", len(mutants))
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(root, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s holds the fragment %d times, want once: %q", m.file, n, m.old)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			goTest := func(run string) ([]byte, error) {
				args := append([]string{"test", "-overlay", overlayPath, "-count=1", "-run", run}, m.pkgs...)
				cmd := exec.Command("go", args...)
				cmd.Dir = root
				// The API gates parse the module's files themselves: this
				// points them at the overlay too.
				cmd.Env = append(os.Environ(), "RPIVIDEO_OVERLAY="+overlayPath)
				return cmd.CombinedOutput()
			}
			// Building every test binary without running a test tells a
			// mutant that does not compile from one its tests kill.
			if out, err := goTest("^$"); err != nil {
				t.Fatalf("the mutant does not build: %v\n%s", err, out)
			}
			out, err := goTest(m.run)
			if err == nil {
				t.Fatalf("the mutant survived %s in %s (%s):\n%s", m.run, strings.Join(m.pkgs, " "), m.why, out)
			}
			if !strings.Contains(string(out), "--- FAIL") && !strings.Contains(string(out), "panic:") {
				t.Fatalf("the tests did not fail on the mutant, go test did: %v\n%s", err, out)
			}
		})
	}
}
