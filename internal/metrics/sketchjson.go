package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// sketchJSON is the wire shape of a Sketch: the totals plus the occupied
// buckets keyed by bucket index (positive samples in buckets, negative ones
// in neg by the bucket of -v). A sketch on the exact path goes out as the
// buckets its samples fall in, so two sketches of one multiset write the
// same bytes and a sketch read back is on the bucketed path.
type sketchJSON struct {
	Count   int64           `json:"count"`
	Sum     float64         `json:"sum"`
	Min     float64         `json:"min"`
	Max     float64         `json:"max"`
	Zero    int64           `json:"zero"`
	Buckets json.RawMessage `json:"buckets"`
	Neg     json.RawMessage `json:"neg"`
}

// MarshalJSON writes the wire shape with buckets in ascending index order;
// keys that would be zero or empty are left out.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	if s.sum-s.sum != 0 { // the finite samples summed past the float range
		return nil, fmt.Errorf("metrics: sketch sum %g has no JSON form", s.sum)
	}
	b := s.bucketed()
	out := make([]byte, 0, 128+16*(len(b.pos.counts)+len(b.neg.counts)))
	out = strconv.AppendInt(append(out, `{"count":`...), b.n, 10)
	out = appendJSONFloat(append(out, `,"sum":`...), b.sum)
	if b.n > 0 {
		out = appendJSONFloat(append(out, `,"min":`...), b.min)
		out = appendJSONFloat(append(out, `,"max":`...), b.max)
	}
	if b.zero != 0 {
		out = strconv.AppendInt(append(out, `,"zero":`...), b.zero, 10)
	}
	out = appendCells(out, `,"buckets":{`, b.pos)
	out = appendCells(out, `,"neg":{`, b.neg)
	return append(out, '}'), nil
}

// appendCells writes a window's occupied buckets as one JSON object under
// the given key, or nothing if none is occupied.
func appendCells(out []byte, key string, w cells) []byte {
	open := false
	for j, c := range w.counts {
		if c == 0 {
			continue
		}
		if open {
			out = append(out, ',')
		} else {
			out, open = append(out, key...), true
		}
		out = append(strconv.AppendInt(append(out, '"'), int64(w.base)+int64(j), 10), `":`...)
		out = strconv.AppendInt(out, c, 10)
	}
	if open {
		out = append(out, '}')
	}
	return out
}

// appendJSONFloat formats f the way encoding/json does.
func appendJSONFloat(out []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	out = strconv.AppendFloat(out, f, format, -1, 64)
	if n := len(out); format == 'e' && n >= 4 && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
		out[n-2] = out[n-1] // e-09 → e-9
		out = out[:n-1]
	}
	return out
}

// UnmarshalJSON reads the wire shape into s, replacing what it held. A
// sketch arrives from outside the process (a -compare baseline, a dist
// shard), so counts must be non-negative and add up to count, bucket keys
// must be indices a finite sample can have, and min must not exceed max.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var in sketchJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Count < 0 || in.Zero < 0 {
		return errors.New("metrics: sketch with a negative count")
	}
	if in.Count > 0 && in.Min > in.Max {
		return fmt.Errorf("metrics: sketch min %g above its max %g", in.Min, in.Max)
	}
	out := Sketch{spilled: true, n: in.Count, sum: in.Sum, zero: in.Zero}
	if in.Count > 0 {
		out.min, out.max = in.Min, in.Max
	}
	// left never wraps: it starts at most count and only ever loses a
	// non-negative count while it is still non-negative.
	left := in.Count - in.Zero
	for _, side := range [...]struct {
		raw json.RawMessage
		w   *cells
	}{{in.Buckets, &out.pos}, {in.Neg, &out.neg}} {
		err := readCells(side.raw, func(idx, c int64) error {
			if idx < int64(sketchMinIndex) || idx > int64(sketchMaxIndex) {
				return fmt.Errorf("metrics: sketch bucket %d is not one a finite sample has", idx)
			}
			if c < 0 {
				return fmt.Errorf("metrics: sketch bucket %d has a negative count", idx)
			}
			if left -= c; left < 0 {
				return errBucketSum(in.Count)
			}
			side.w.add(int32(idx), c)
			return nil
		})
		if err != nil {
			return err
		}
	}
	if left != 0 {
		return errBucketSum(in.Count)
	}
	*s = out
	return nil
}

func errBucketSum(count int64) error {
	return fmt.Errorf("metrics: sketch buckets and zero cell do not add up to its count %d", count)
}

// readCells hands take every bucket index and count of one bucket object.
// raw is valid JSON (encoding/json checked it before UnmarshalJSON saw it).
// In the form MarshalJSON writes it is read in place; anything else goes
// through encoding/json into a map, which yields the same pairs wherever
// both can read the object.
func readCells(raw json.RawMessage, take func(idx, c int64) error) error {
	if len(raw) == 0 || string(raw) == "null" {
		return nil
	}
	if ok, _ := scanCells(raw, nil); ok {
		_, err := scanCells(raw, take)
		return err
	}
	var m map[string]int64
	if err := json.Unmarshal(raw, &m); err != nil {
		return err
	}
	for k, c := range m {
		idx, err := strconv.ParseInt(k, 10, 32)
		if err != nil {
			return fmt.Errorf("metrics: sketch bucket key %q is not a bucket index", k)
		}
		if err := take(idx, c); err != nil {
			return err
		}
	}
	return nil
}

// scanCells walks a bucket object in the form MarshalJSON writes: keys that
// are integers as strconv.AppendInt writes them, in strictly ascending
// order, counts the same, any JSON whitespace between tokens. It reports
// false at the first byte that leaves that form, having handed fn (when
// not nil) the pairs before it; the error is fn's.
func scanCells(b []byte, fn func(idx, c int64) error) (bool, error) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false, nil
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b), nil
	}
	var last int64
	for first := true; ; first = false {
		if i == len(b) || b[i] != '"' {
			return false, nil
		}
		idx, n, ok := scanInt(b[i+1:])
		if i += 1 + n; !ok || i == len(b) || b[i] != '"' || !first && idx <= last {
			return false, nil
		}
		if i = skipSpace(b, i+1); i == len(b) || b[i] != ':' {
			return false, nil
		}
		i = skipSpace(b, i+1)
		c, n, ok := scanInt(b[i:])
		if !ok {
			return false, nil
		}
		if fn != nil {
			if err := fn(idx, c); err != nil {
				return true, err
			}
		}
		last = idx
		switch i = skipSpace(b, i+n); {
		case i < len(b) && b[i] == ',':
			i = skipSpace(b, i+1)
		case i < len(b) && b[i] == '}':
			return skipSpace(b, i+1) == len(b), nil
		default:
			return false, nil
		}
	}
}

// scanInt reads an integer as strconv.AppendInt writes it — a minus for
// negatives, no leading zero, no -0 — of at most 18 digits, so it cannot
// overflow, from the start of b: its value and length.
func scanInt(b []byte) (v int64, n int, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		n = 1
	}
	start := n
	for n < len(b) && '0' <= b[n] && b[n] <= '9' && n-start < 19 {
		v = 10*v + int64(b[n]-'0')
		n++
	}
	digits := n - start
	if digits == 0 || digits > 18 || b[start] == '0' && (digits > 1 || neg) {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, n, true
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
