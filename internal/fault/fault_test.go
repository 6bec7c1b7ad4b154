package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseSchedule(t *testing.T) {
	ws, err := ParseSchedule("45s+2s, 90s+500ms/down ,120s+1s/up")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	want := []Window{
		{Start: 45 * time.Second, Duration: 2 * time.Second, Dir: Both},
		{Start: 90 * time.Second, Duration: 500 * time.Millisecond, Dir: Downlink},
		{Start: 120 * time.Second, Duration: time.Second, Dir: Uplink},
	}
	if len(ws) != len(want) {
		t.Fatalf("got %d windows, want %d", len(ws), len(want))
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("window %d: got %+v, want %+v", i, ws[i], want[i])
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"45s",          // no duration
		"45s+2s/side",  // bad direction
		"xyz+2s",       // bad start
		"45s+xyz",      // bad duration
		"-1s+2s",       // negative start
		"45s+0s",       // zero duration
		"45s+2s,45s+w", // error in second element
		// The end overflows a Duration: the window would never be in force.
		"2562047h+2562047h",
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", spec)
		}
	}
	if ws, err := ParseSchedule(""); err != nil || len(ws) != 0 {
		t.Errorf("empty spec: got %v windows, err %v", ws, err)
	}
}

// TestParseScheduleEdgeCases pins the parser's behaviour on the inputs a
// user is most likely to mistype on the -faults flag.
func TestParseScheduleEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		want    []Window
		wantErr bool
	}{
		{name: "empty string", spec: "", want: nil},
		{name: "whitespace only", spec: "   ", want: nil},
		{
			name: "trailing comma",
			spec: "45s+2s,",
			want: []Window{{Start: 45 * time.Second, Duration: 2 * time.Second, Dir: Both}},
		},
		{
			name: "interior empty field",
			spec: "45s+2s,,90s+1s/up",
			want: []Window{
				{Start: 45 * time.Second, Duration: 2 * time.Second, Dir: Both},
				{Start: 90 * time.Second, Duration: time.Second, Dir: Uplink},
			},
		},
		{name: "separators only", spec: ",", wantErr: true},
		{name: "separators and spaces only", spec: " , , ", wantErr: true},
		{name: "zero duration", spec: "5s+0s", wantErr: true},
		{name: "negative duration", spec: "5s+-2s", wantErr: true},
		{name: "bad direction suffix", spec: "5s+1s/sideways", wantErr: true},
		{name: "empty direction suffix", spec: "5s+1s/", wantErr: true},
		{name: "missing plus", spec: "5s2s", wantErr: true},
		{
			// Overlapping windows parse fine; NewPathLine merges them at
			// activation time (TestLineMergesOverlaps).
			name: "overlapping windows",
			spec: "10s+5s,12s+5s",
			want: []Window{
				{Start: 10 * time.Second, Duration: 5 * time.Second, Dir: Both},
				{Start: 12 * time.Second, Duration: 5 * time.Second, Dir: Both},
			},
		},
		{
			name: "zero start is valid",
			spec: "0s+1s/down",
			want: []Window{{Start: 0, Duration: time.Second, Dir: Downlink}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseSchedule(tc.spec)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseSchedule(%q) = %+v, want error", tc.spec, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseSchedule(%q): %v", tc.spec, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ParseSchedule(%q) = %+v, want %+v", tc.spec, got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Errorf("window %d: got %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestParseSchedulePaths: the @p1/@p2 suffix scopes a window to one bonded
// path and composes with the direction suffix in either order.
func TestParseSchedulePaths(t *testing.T) {
	ws, err := ParseSchedule("45s+2s@p1, 60s+1s/up@p2 ,75s+1s@p1/down, 90s~80ms@p2")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	want := []Window{
		{Start: 45 * time.Second, Duration: 2 * time.Second, Dir: Both, Path: PathPrimary},
		{Start: 60 * time.Second, Duration: time.Second, Dir: Uplink, Path: PathSecondary},
		{Start: 75 * time.Second, Duration: time.Second, Dir: Downlink, Path: PathPrimary},
		{Start: 90 * time.Second, Duration: 80 * time.Millisecond, Dir: Both, Loss: true, Path: PathSecondary},
	}
	if len(ws) != len(want) {
		t.Fatalf("got %d windows, want %d", len(ws), len(want))
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("window %d: got %+v, want %+v", i, ws[i], want[i])
		}
	}
	for _, spec := range []string{
		"45s+2s@p3",    // no such path
		"45s+2s@",      // empty path suffix
		"45s+2s@p1@p2", // doubled path suffix
		"45s+2s/up/up", // doubled direction suffix
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", spec)
		}
	}
}

// TestPathLineFiltering: NewPathLine keeps PathAll windows on every line and
// path-scoped windows only on their own path's line.
func TestPathLineFiltering(t *testing.T) {
	ws := []Window{
		{Start: 10 * time.Second, Duration: time.Second},                      // all paths
		{Start: 20 * time.Second, Duration: time.Second, Path: PathPrimary},   // p1 only
		{Start: 30 * time.Second, Duration: time.Second, Path: PathSecondary}, // p2 only
	}
	p1 := NewPathLine(ws, Uplink, PathPrimary)
	p2 := NewPathLine(ws, Uplink, PathSecondary)
	all := NewPathLine(ws, Uplink, PathAll)

	check := func(l *Line, at time.Duration, wantBlocked bool, name string) {
		t.Helper()
		if _, blocked := l.Blocked(at); blocked != wantBlocked {
			t.Errorf("%s.Blocked(%v) = %v, want %v", name, at, blocked, wantBlocked)
		}
	}
	check(p1, 10500*time.Millisecond, true, "p1") // unscoped window hits both
	check(p2, 10500*time.Millisecond, true, "p2")
	check(p1, 20500*time.Millisecond, true, "p1")
	check(p2, 20500*time.Millisecond, false, "p2")
	check(p1, 30500*time.Millisecond, false, "p1")
	check(p2, 30500*time.Millisecond, true, "p2")
	// A PathAll line (the single-operator legacy shape) sees everything.
	check(all, 20500*time.Millisecond, true, "all")
	check(all, 30500*time.Millisecond, true, "all")

	if NewPathLine([]Window{{Start: 1, Duration: 1, Path: PathSecondary}}, Uplink, PathPrimary) != nil {
		t.Error("NewPathLine with no applicable windows should return nil")
	}
}

func TestLineDirectionFiltering(t *testing.T) {
	ws := []Window{
		{Start: 10 * time.Second, Duration: time.Second, Dir: Both},
		{Start: 20 * time.Second, Duration: time.Second, Dir: Uplink},
		{Start: 30 * time.Second, Duration: time.Second, Dir: Downlink},
	}
	up := NewPathLine(ws, Uplink, PathAll)
	down := NewPathLine(ws, Downlink, PathAll)

	check := func(l *Line, at time.Duration, wantBlocked bool, name string) {
		t.Helper()
		if _, blocked := l.Blocked(at); blocked != wantBlocked {
			t.Errorf("%s.Blocked(%v) = %v, want %v", name, at, blocked, wantBlocked)
		}
	}
	check(up, 10500*time.Millisecond, true, "up")     // Both window
	check(down, 10500*time.Millisecond, true, "down") // Both window
	check(up, 20500*time.Millisecond, true, "up")
	check(down, 20500*time.Millisecond, false, "down")
	check(up, 30500*time.Millisecond, false, "up")
	check(down, 30500*time.Millisecond, true, "down")
	check(up, 5*time.Second, false, "up")
	check(up, 50*time.Second, false, "up")
}

func TestLineMergesOverlaps(t *testing.T) {
	ws := []Window{
		{Start: 10 * time.Second, Duration: 2 * time.Second},
		{Start: 11 * time.Second, Duration: 3 * time.Second}, // overlaps → [10,14)
		{Start: 20 * time.Second, Duration: time.Second},
	}
	l := NewPathLine(ws, Uplink, PathAll)
	until, blocked := l.Blocked(11 * time.Second)
	if !blocked || until != 14*time.Second {
		t.Errorf("Blocked(11s) = (%v, %v), want (14s, true)", until, blocked)
	}
	if _, blocked := l.Blocked(14 * time.Second); blocked {
		t.Error("Blocked at merged window end, want clear (half-open interval)")
	}
	if until, blocked := l.Blocked(20 * time.Second); !blocked || until != 21*time.Second {
		t.Errorf("Blocked(20s) = (%v, %v), want (21s, true)", until, blocked)
	}
}

func TestLineNilAndEmpty(t *testing.T) {
	var l *Line
	if _, blocked := l.Blocked(time.Second); blocked {
		t.Error("nil line reports blocked")
	}
	if NewPathLine(nil, Uplink, PathAll) != nil {
		t.Error("NewPathLine with no windows should return nil")
	}
	if NewPathLine([]Window{{Start: 1, Duration: 1, Dir: Downlink}}, Uplink, PathAll) != nil {
		t.Error("NewPathLine with no applicable windows should return nil")
	}
}

func TestParseScheduleLossFades(t *testing.T) {
	ws, err := ParseSchedule("20s~60ms, 45s+2s ,70s~80ms/up")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	want := []Window{
		{Start: 20 * time.Second, Duration: 60 * time.Millisecond, Dir: Both, Loss: true},
		{Start: 45 * time.Second, Duration: 2 * time.Second, Dir: Both},
		{Start: 70 * time.Second, Duration: 80 * time.Millisecond, Dir: Uplink, Loss: true},
	}
	if len(ws) != len(want) {
		t.Fatalf("got %d windows, want %d", len(ws), len(want))
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("window %d: got %+v, want %+v", i, ws[i], want[i])
		}
	}
	if _, err := ParseSchedule("20s~0s"); err == nil {
		t.Error("zero-duration fade parsed, want error")
	}
}

func TestLineLossyIndependentOfBlocked(t *testing.T) {
	ws := []Window{
		{Start: 10 * time.Second, Duration: time.Second},                     // outage
		{Start: 20 * time.Second, Duration: time.Second, Loss: true},         // fade
		{Start: 20500 * time.Millisecond, Duration: time.Second, Loss: true}, // overlapping fade → [20, 21.5)
	}
	l := NewPathLine(ws, Uplink, PathAll)
	if !l.Lossy(20500 * time.Millisecond) {
		t.Error("inside fade not lossy")
	}
	if !l.Lossy(21200 * time.Millisecond) {
		t.Error("merged fade tail not lossy")
	}
	if l.Lossy(21500 * time.Millisecond) {
		t.Error("lossy at fade end, want clear (half-open interval)")
	}
	if l.Lossy(10500 * time.Millisecond) {
		t.Error("outage window reported lossy")
	}
	if _, blocked := l.Blocked(20500 * time.Millisecond); blocked {
		t.Error("fade window reported blocked: fades must not interrupt service")
	}
	if _, blocked := l.Blocked(10500 * time.Millisecond); !blocked {
		t.Error("outage window not blocked")
	}
	var nilLine *Line
	if nilLine.Lossy(time.Second) {
		t.Error("nil line reports lossy")
	}
	if NewPathLine([]Window{{Start: 1, Duration: 1, Loss: true}}, Uplink, PathAll) == nil {
		t.Error("NewPathLine with only fades should not be nil")
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero Config reports enabled")
	}
	if !(Config{RLF: true}).Enabled() {
		t.Error("RLF-only Config reports disabled")
	}
	if !(Config{Windows: []Window{{Duration: time.Second}}}).Enabled() {
		t.Error("windowed Config reports disabled")
	}
}

func TestEpisodeLength(t *testing.T) {
	ep := Episode{Start: 2 * time.Second, End: 5 * time.Second, Kind: KindRLF}
	if ep.Length() != 3*time.Second {
		t.Errorf("Length = %v, want 3s", ep.Length())
	}
	for k, want := range map[Kind]string{KindScripted: "scripted", KindRLF: "rlf", KindHandoverFailure: "ho-failure"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	for d, want := range map[Direction]string{Both: "both", Uplink: "up", Downlink: "down"} {
		if d.String() != want {
			t.Errorf("Direction(%d).String() = %q, want %q", d, d.String(), want)
		}
	}
}

// FuzzParseSchedule: the parser must never panic, every accepted schedule
// holds the Window invariants the link layer relies on, and it re-parses to
// the same windows through a canonical spelling (seeds: the outage, fade,
// direction and @p1/@p2 forms of the tests above, and their rejects).
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"45s+2s, 90s+500ms/down ,120s+1s/up", "20s~60ms, 45s+2s ,70s~80ms/up",
		"45s+2s@p1, 60s+1s/up@p2 ,75s+1s@p1/down, 90s~80ms@p2", "1m30s+1.5s/both",
		"", ",", " , ", "45s", "45s+", "+2s", "20s~0s", "-1s+2s", "45s+2s/sideways", "45s+2s@p3",
		"45s+2s/up/down", "45s+2s@p1@p2", "45s+2s~1s", "9999999h+1s", "2562047h+2562047h",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ws, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		var canon []string
		for _, w := range ws {
			if w.Start < 0 || w.Duration <= 0 || w.End() < 0 || w.Dir < Both || w.Dir > Downlink || w.Path < PathAll || w.Path > PathSecondary {
				t.Fatalf("ParseSchedule(%q) accepted window %+v", spec, w)
			}
			sep, scope := "+", ""
			if w.Loss {
				sep = "~"
			}
			if w.Path != PathAll {
				scope = fmt.Sprintf("@p%d", w.Path)
			}
			canon = append(canon, fmt.Sprintf("%v%s%v/%v%s", w.Start, sep, w.Duration, w.Dir, scope))
		}
		again, err := ParseSchedule(strings.Join(canon, ","))
		if err != nil || !reflect.DeepEqual(again, ws) {
			t.Fatalf("ParseSchedule(%q) = %+v; canonical %q re-parses to %+v, %v", spec, ws, canon, again, err)
		}
		// Each link's view of an accepted schedule has every window that
		// applies to it in force at its start.
		for _, dir := range []Direction{Uplink, Downlink} {
			for _, path := range []int{PathPrimary, PathSecondary} {
				l := NewPathLine(ws, dir, path)
				for _, w := range ws {
					if (w.Dir != Both && w.Dir != dir) || (w.Path != PathAll && w.Path != path) {
						continue
					}
					if _, blocked := l.Blocked(w.Start); !w.Loss && !blocked {
						t.Fatalf("ParseSchedule(%q): %v path %d not blocked at the start of %+v", spec, dir, path, w)
					}
					if w.Loss && !l.Lossy(w.Start) {
						t.Fatalf("ParseSchedule(%q): %v path %d not lossy at the start of %+v", spec, dir, path, w)
					}
				}
			}
		}
	})
}
