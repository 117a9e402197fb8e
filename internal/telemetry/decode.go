package telemetry

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/expdata"
)

// recordDecoder decodes segment lines into records. The line json.Marshal
// writes for a PlanRecord takes a direct path that never touches
// reflection; every other line goes to json.Unmarshal. The direct path
// accepts a strict subset of what json.Unmarshal accepts and decodes it
// to the same bits (TestDecodeFeaturizedTelemetry and FuzzDecodeLine
// compare the two), so which path a line takes never shows in the records.
//
// A decoder lives for one read: it interns the DB, Query and channel-name
// strings it has seen, so a window's thousands of records share a handful
// of strings, and it collects each record's channel values in one buffer
// it reuses.
type recordDecoder struct {
	strs   map[string]string
	floats []float64  // the current record's channel values, in order
	chans  []chanSpan // the current record's channels, ending in floats
}

type chanSpan struct {
	name string
	end  int // floats[previous end:end] are the channel's values
}

// decode decodes one line, reporting false when json.Unmarshal rejects it.
func (d *recordDecoder) decode(line []byte) (expdata.PlanRecord, bool) {
	if rec, ok := d.direct(line); ok {
		return rec, true
	}
	var rec expdata.PlanRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, false
	}
	return rec, true
}

// direct decodes exactly the form the sink writes:
//
//	{"db":S,"query":S,"template_hash":U,"fingerprint":U,"cost":F,
//	 "est_total_cost":F,"channels":{S:[F,…],…}[,"weight":F]}
//
// with no whitespace and nothing after the last brace. Strings must be
// printable ASCII without '"' or '\\', so a string's value is its bytes.
// Numbers follow the JSON grammar and convert with the strconv calls
// encoding/json makes (a bare 0 skips the call: it converts to +0); any
// conversion error rejects the line.
func (d *recordDecoder) direct(p []byte) (rec expdata.PlanRecord, ok bool) {
	var s []byte
	if p, ok = bytes.CutPrefix(p, []byte(`{"db":`)); !ok {
		return rec, false
	}
	if s, p, ok = cutString(p); !ok {
		return rec, false
	}
	rec.DB = d.intern(s)
	if p, ok = bytes.CutPrefix(p, []byte(`,"query":`)); !ok {
		return rec, false
	}
	if s, p, ok = cutString(p); !ok {
		return rec, false
	}
	rec.Query = d.intern(s)
	if rec.TemplateHash, p, ok = cutUint(p, `,"template_hash":`); !ok {
		return rec, false
	}
	if rec.Fingerprint, p, ok = cutUint(p, `,"fingerprint":`); !ok {
		return rec, false
	}
	if rec.Cost, p, ok = cutFloat(p, `,"cost":`); !ok {
		return rec, false
	}
	if rec.EstTotalCost, p, ok = cutFloat(p, `,"est_total_cost":`); !ok {
		return rec, false
	}
	if p, ok = bytes.CutPrefix(p, []byte(`,"channels":{`)); !ok {
		return rec, false
	}
	if p, ok = d.channels(p); !ok {
		return rec, false
	}
	if len(p) > 1 {
		if rec.Weight, p, ok = cutFloat(p, `,"weight":`); !ok {
			return rec, false
		}
	}
	if len(p) != 1 || p[0] != '}' {
		return rec, false
	}
	rec.Channels = d.carve()
	return rec, true
}

// channels scans the channel map's entries up to and past its closing
// brace into d.floats and d.chans.
func (d *recordDecoder) channels(p []byte) ([]byte, bool) {
	d.floats, d.chans = d.floats[:0], d.chans[:0]
	if len(p) > 0 && p[0] == '}' {
		return p[1:], true
	}
	for {
		name, rest, ok := cutString(p)
		if !ok {
			return nil, false
		}
		if p, ok = bytes.CutPrefix(rest, []byte(`:[`)); !ok {
			return nil, false
		}
		if len(p) > 0 && p[0] == ']' {
			p = p[1:]
		} else {
			for {
				num, rest, ok := cutNumber(p)
				if !ok || len(rest) == 0 {
					return nil, false
				}
				x, ok := parseFloat(num)
				if !ok {
					return nil, false
				}
				d.floats = append(d.floats, x)
				c := rest[0]
				p = rest[1:]
				if c == ']' {
					break
				}
				if c != ',' {
					return nil, false
				}
			}
		}
		d.chans = append(d.chans, chanSpan{name: d.intern(name), end: len(d.floats)})
		if len(p) == 0 {
			return nil, false
		}
		c := p[0]
		p = p[1:]
		if c == '}' {
			return p, true
		}
		if c != ',' {
			return nil, false
		}
	}
}

// carve builds the record's channel map over one fresh array holding its
// values. Each channel's capacity ends at its length, so an append to one
// channel reallocates instead of writing into the next.
func (d *recordDecoder) carve() map[string][]float64 {
	vals := make([]float64, len(d.floats))
	copy(vals, d.floats)
	m := make(map[string][]float64, len(d.chans))
	start := 0
	for _, c := range d.chans {
		m[c.name] = vals[start:c.end:c.end]
		start = c.end
	}
	return m
}

// intern returns s as a string, shared with every earlier equal string of
// this read.
func (d *recordDecoder) intern(s []byte) string {
	if v, ok := d.strs[string(s)]; ok {
		return v
	}
	if d.strs == nil {
		d.strs = map[string]string{}
	}
	v := string(s)
	d.strs[v] = v
	return v
}

// cutString cuts a JSON string of printable ASCII other than '"' and '\\'
// from the front of p, returning its value.
func cutString(p []byte) (val, rest []byte, ok bool) {
	if len(p) == 0 || p[0] != '"' {
		return nil, nil, false
	}
	for i := 1; i < len(p); i++ {
		switch c := p[i]; {
		case c == '"':
			return p[1:i], p[i+1:], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// cutNumber cuts a number in JSON's grammar from the front of p:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func cutNumber(p []byte) (num, rest []byte, ok bool) {
	i := 0
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && '1' <= p[i] && p[i] <= '9':
		i = digits(p, i+1)
	default:
		return nil, nil, false
	}
	if i < len(p) && p[i] == '.' {
		j := digits(p, i+1)
		if j == i+1 {
			return nil, nil, false
		}
		i = j
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		i++
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		j := digits(p, i)
		if j == i {
			return nil, nil, false
		}
		i = j
	}
	return p[:i], p[i:], true
}

// digits returns the index of the first non-digit in p at or after i.
func digits(p []byte, i int) int {
	for i < len(p) && '0' <= p[i] && p[i] <= '9' {
		i++
	}
	return i
}

// cutUint cuts the key prefix and an unsigned integer from the front of p.
func cutUint(p []byte, key string) (uint64, []byte, bool) {
	p, ok := bytes.CutPrefix(p, []byte(key))
	if !ok {
		return 0, nil, false
	}
	num, p, ok := cutNumber(p)
	if !ok {
		return 0, nil, false
	}
	v, err := strconv.ParseUint(string(num), 10, 64)
	return v, p, err == nil
}

// cutFloat cuts the key prefix and a number from the front of p.
func cutFloat(p []byte, key string) (float64, []byte, bool) {
	p, ok := bytes.CutPrefix(p, []byte(key))
	if !ok {
		return 0, nil, false
	}
	num, p, ok := cutNumber(p)
	if !ok {
		return 0, nil, false
	}
	v, ok := parseFloat(num)
	return v, p, ok
}

// parseFloat converts a number as encoding/json does. Most attributes of a
// plan vector are 0, which converts to +0 without the call.
func parseFloat(num []byte) (float64, bool) {
	if len(num) == 1 && num[0] == '0' {
		return 0, true
	}
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}
