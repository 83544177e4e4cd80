package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/traj"
)

// decodeCase is one body whose decode the contract pins down; ok is
// whether encoding/json, and so decodeIngest, accepts it.
type decodeCase struct {
	name string
	body string
	ok   bool
}

// decodeCases covers each rule of the contract in decode.go.
var decodeCases = []decodeCase{
	{"plain", `{"trajectories":[{"trid":1,"points":[{"sid":0,"x":1,"y":2,"t":3}]}]}`, true},
	{"white space", " \t\r\n{ \"trajectories\" : [ { \"trid\" : 1 , \"points\" : [ ] } ] } ", true},

	// Member names.
	{"upper-case name", `{"TRAJECTORIES":[{"TRID":2,"Points":[{"SID":1,"X":1,"Y":2,"T":3}]}]}`, true},
	{"escaped name", `{"\u0074rajectories":[{"\u0074rid":3,"p\u006fints":[{"\u0073id":1}]}]}`, true},
	{"escaped upper-case name", `{"trajectories":[{"\u0054RID":3}]}`, true},
	{"long s", `{"trajectorieſ":[{"trid":4,"pointſ":[{"ſid":5}]}]}`, true},
	{"escaped long s", `{"trajectories":[{"point\u017f":[{"\u017fid":5}]}]}`, true},
	{"dotless i", `{"trajectories":[{"trıd":6}]}`, true},
	{"dotted capital I", `{"trajectories":[{"trİd":6}]}`, true},
	{"kelvin sign", `{"trajectories":[{"x\u212a":1}]}`, true},
	{"escaped quote in name", `{"trajectories":[{"tr\"id":6}]}`, true},
	{"surrogate pair in name", `{"trajectories":[{"\ud83d\ude00":6,"trid":7}]}`, true},
	{"lone surrogate in name", `{"trajectories":[{"tri\ud800d":6}]}`, true},
	{"invalid UTF-8 in name", "{\"trajectories\":[{\"tri\xffd\":6,\"trid\":7}]}", true},
	{"unknown members", `{"a":1,"trajectories":[{"b":[1,{"c":null},"d",true,false,-1.5e3],"trid":1,"points":[{"e":{},"sid":2}]}],"f":{"g":[]}}`, true},
	{"malformed unknown member", `{"a":[1,}`, false},
	{"unknown member bad literal", `{"a":tru}`, false},
	{"unknown member missing colon", `{"a" 1}`, false},
	{"unknown member unclosed", `{"a":{"b":1]}`, false},
	{"trailing comma in object", `{"trajectories":[],}`, false},
	{"trailing comma in array", `{"trajectories":[{"trid":1},]}`, false},
	{"missing comma", `{"trajectories":[{"trid":1} {"trid":2}]}`, false},
	{"non-string key", `{1:2}`, false},

	// Repeated members.
	{"repeated points merge", `{"trajectories":[{"points":[{"sid":1,"x":2}],"points":[{"y":3}]}]}`, true},
	{"longer array finds left-behind elements", `{"trajectories":[{"points":[{"x":1},{"x":2},{"x":3}],"points":[{"y":4}],"points":[{},{},{"t":5},{"sid":6}]}]}`, true},
	{"repeated trid", `{"trajectories":[{"trid":1,"trid":2}]}`, true},
	{"repeated trajectories", `{"trajectories":[{"trid":1},{"trid":2}],"trajectories":[null],"trajectories":[null,null,{"points":[]}]}`, true},
	{"empty array drops left-behind elements", `{"trajectories":[{"trid":1},{"trid":2}],"trajectories":[],"trajectories":[null,null]}`, true},
	{"null drops left-behind elements", `{"trajectories":[{"trid":1},{"trid":2}],"trajectories":null,"trajectories":[null,{}]}`, true},
	{"repeated points inside repeated trajectories", `{"trajectories":[{"trid":9,"points":[{"x":1},{"x":2}]}],"trajectories":[{"points":[{"y":3}]}],"trajectories":[{"points":[{},{"t":4}]}]}`, true},

	// Empty arrays and null.
	{"empty trajectories", `{"trajectories":[]}`, true},
	{"null trajectories", `{"trajectories":null}`, true},
	{"empty object", `{}`, true},
	{"null points", `{"trajectories":[{"trid":1,"points":null}]}`, true},
	{"null number keeps value", `{"trajectories":[{"trid":5,"trid":null,"points":[{"x":1,"x":null}]}]}`, true},
	{"null element", `{"trajectories":[null,{"trid":2}]}`, true},
	{"top-level null", `null`, true},
	{"top-level null then bytes", `null x`, true},
	{"bad null", `{"trajectories":nul}`, false},

	// Numbers.
	{"int32 bounds", `{"trajectories":[{"trid":2147483647,"points":[{"sid":-2147483648}]}]}`, true},
	{"trid above int32", `{"trajectories":[{"trid":2147483648}]}`, false},
	{"sid below int32", `{"trajectories":[{"points":[{"sid":-2147483649}]}]}`, false},
	{"trid beyond int64", `{"trajectories":[{"trid":99999999999999999999}]}`, false},
	{"trid with fraction", `{"trajectories":[{"trid":1.0}]}`, false},
	{"trid with exponent", `{"trajectories":[{"trid":1e2}]}`, false},
	{"negative zero trid", `{"trajectories":[{"trid":-0}]}`, true},
	{"negative zero float", `{"trajectories":[{"points":[{"x":-0,"y":-0.0,"t":-0e5}]}]}`, true},
	{"float forms", `{"trajectories":[{"points":[{"x":1.5e-3,"y":-2E+2,"t":0.1e1}]}]}`, true},
	{"float overflow", `{"trajectories":[{"points":[{"x":1e400}]}]}`, false},
	{"float underflow", `{"trajectories":[{"points":[{"x":1e-400,"y":4.9e-324}]}]}`, true},
	{"float max", `{"trajectories":[{"points":[{"x":1.7976931348623157e308}]}]}`, true},
	{"long float", `{"trajectories":[{"points":[{"x":3.14159265358979323846264338327950288419716939937510582097494459}]}]}`, true},
	{"leading zero", `{"trajectories":[{"trid":01}]}`, false},
	{"bare point", `{"trajectories":[{"points":[{"x":1.}]}]}`, false},
	{"leading point", `{"trajectories":[{"points":[{"x":.5}]}]}`, false},
	{"plus sign", `{"trajectories":[{"points":[{"x":+1}]}]}`, false},
	{"bare minus", `{"trajectories":[{"points":[{"x":-}]}]}`, false},
	{"empty exponent", `{"trajectories":[{"points":[{"x":1e}]}]}`, false},
	{"signed empty exponent", `{"trajectories":[{"points":[{"x":1e+}]}]}`, false},
	{"hex", `{"trajectories":[{"points":[{"x":0x10}]}]}`, false},
	{"NaN", `{"trajectories":[{"points":[{"x":NaN}]}]}`, false},
	{"Infinity", `{"trajectories":[{"points":[{"x":-Infinity}]}]}`, false},
	{"number in unknown member", `{"n":-0.5E-7}`, true},
	{"bad number in unknown member", `{"n":-01}`, false},

	// Types.
	{"string trid", `{"trajectories":[{"trid":"1"}]}`, false},
	{"bool trid", `{"trajectories":[{"trid":true}]}`, false},
	{"object sid", `{"trajectories":[{"points":[{"sid":{}}]}]}`, false},
	{"array x", `{"trajectories":[{"points":[{"x":[]}]}]}`, false},
	{"object trajectories", `{"trajectories":{}}`, false},
	{"string points", `{"trajectories":[{"points":"x"}]}`, false},
	{"number element", `{"trajectories":[1]}`, false},
	{"array point", `{"trajectories":[{"points":[[]]}]}`, false},
	{"top-level array", `[]`, false},
	{"top-level string", `"x"`, false},
	{"top-level number", `1`, false},
	{"top-level bool", `true`, false},

	// Strings.
	{"control byte", "{\"a\":\"x\x01y\"}", false},
	{"raw tab", "{\"a\":\"x\ty\"}", false},
	{"raw newline in name", "{\"a\nb\":1}", false},
	{"JSON escapes", `{"a":"\"\\\/\b\f\n\r\t\u00e9\uD83D\uDE00"}`, true},
	{"lone surrogate", `{"a":"\ud800"}`, true},
	{"reversed surrogates", `{"a":"\udc00\ud800"}`, true},
	{"invalid UTF-8 in skipped string", "{\"a\":\"\xff\xfe\xc3\"}", true},
	{"single-quote escape", `{"a":"\'"}`, false},
	{"hex escape", `{"a":"\x41"}`, false},
	{"short unicode escape", `{"a":"\u12g4"}`, false},
	{"unterminated string", `{"a":"abc`, false},
	{"single-quoted string", `{'a':1}`, false},

	// Only the first value.
	{"trailing garbage", `{} garbage`, true},
	{"second object ignored", `{"trajectories":[{"trid":1}]} {"trajectories":[{"trid":2}]}`, true},
	{"trailing bracket", `{}]`, true},
	{"empty body", ``, false},
	{"white space only", " \n\t ", false},
	{"garbage", `not json at all`, false},
	{"BOM", "\xef\xbb\xbf{}", false},
	{"NUL byte", "{\"trajectories\":\x00[]}", false},

	// Nesting.
	{"nesting at the limit", nested(maxNesting - 1), true},
	{"nesting past the limit", nested(maxNesting), false},
	{"empty array past the limit", `{"a":` + strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting) + `}`, false},
	{"deep object in a point", `{"trajectories":[{"points":[{"a":` + strings.Repeat(`{"b":`, maxNesting-5) + `1` + strings.Repeat("}", maxNesting-5) + `}]}]}`, true},
	{"deep object past the limit in a point", `{"trajectories":[{"points":[{"a":` + strings.Repeat(`{"b":`, maxNesting-4) + `1` + strings.Repeat("}", maxNesting-4) + `}]}]}`, false},
}

// nested returns an object whose member a holds n nested arrays, so the
// body nests n+1 levels deep.
func nested(n int) string {
	return `{"a":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
}

// twoTrajectories is a valid two-trajectory body that the truncation
// test cuts at every offset.
const twoTrajectories = `{"trajectories":[{"trid":7,"points":[{"sid":0,"x":1.5,"y":-2e3,"t":0},` +
	`{"sid":1,"x":100,"y":0.25,"t":10}]},{"trid":8,"extra":{"note":"\u00e9\"x","n":[1,null,true,false]},` +
	`"points":[ {"sid":2,"x":-0,"y":1E-2,"t":20},{"SID":3,"x":3,"y":4,"t":30.5} ]}],"meta":null}`

// checkAgainstJSON fails t unless decodeIngest and encoding/json both
// reject body, or both accept it with equal values and bit-identical
// floats. It returns whether encoding/json accepted it.
func checkAgainstJSON(t *testing.T, body []byte) bool {
	t.Helper()
	var want IngestRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	got, err := decodeIngest(bytes.NewReader(body), int64(len(body)))
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("body %q: decodeIngest error %v, encoding/json error %v", body, err, wantErr)
	case err == nil && !sameRequest(got, want):
		t.Fatalf("body %q:\ndecodeIngest  %#v\nencoding/json %#v", body, got, want)
	}
	return wantErr == nil
}

// sameRequest is reflect.DeepEqual with floats compared by their bits,
// so that -0 and +0 differ.
func sameRequest(a, b IngestRequest) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for i, ta := range a.Trajectories {
		for j, pa := range ta.Points {
			pb := b.Trajectories[i].Points[j]
			if math.Float64bits(pa.X) != math.Float64bits(pb.X) ||
				math.Float64bits(pa.Y) != math.Float64bits(pb.Y) ||
				math.Float64bits(pa.Time) != math.Float64bits(pb.Time) {
				return false
			}
		}
	}
	return true
}

func TestDecodeIngestMatchesEncodingJSON(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			if ok := checkAgainstJSON(t, []byte(c.body)); ok != c.ok {
				t.Fatalf("encoding/json accepted=%v, the case expects %v", ok, c.ok)
			}
		})
	}
	t.Run("truncations", func(t *testing.T) {
		for n := 0; n <= len(twoTrajectories); n++ {
			checkAgainstJSON(t, []byte(twoTrajectories[:n]))
		}
	})
}

func TestDecodeIngestValues(t *testing.T) {
	for _, c := range []struct {
		body string
		want IngestRequest
	}{
		{`{"trajectories":[{"points":[{"sid":1,"x":2}],"points":[{"y":3}]}]}`,
			IngestRequest{[]TrajectoryDTO{{Points: []PointDTO{{Seg: 1, X: 2, Y: 3}}}}}},
		{`{"trajectories":[{"points":[{"x":1},{"x":2}],"points":[{"y":3}],"points":[{},{"t":4}]}]}`,
			IngestRequest{[]TrajectoryDTO{{Points: []PointDTO{{X: 1, Y: 3}, {X: 2, Time: 4}}}}}},
		{`{"TRAJECTORIES":[{"\u0074rid":5,"pointſ":[]}]}`,
			IngestRequest{[]TrajectoryDTO{{ID: 5, Points: []PointDTO{}}}}},
		{`{"trajectories":[{"trid":1},{"trid":2}],"trajectories":[null],"trajectories":[null,null]}`,
			IngestRequest{[]TrajectoryDTO{{ID: 1}, {ID: 2}}}},
		{`null`, IngestRequest{}},
	} {
		got, err := decodeIngest(strings.NewReader(c.body), -1)
		if err != nil || !sameRequest(got, c.want) {
			t.Errorf("%s: got %#v, %v; want %#v", c.body, got, err, c.want)
		}
	}
}

// The handler answers 400 for a body the decoder rejects, and for a
// top-level null, which decodes to no trajectories.
func TestIngestRejectsUndecodableBodies(t *testing.T) {
	g, _ := testSetup(t)
	h := New(g, Config{DataNodes: 1}).Handler()
	for body, want := range map[string]string{
		``:                                `"error":"decode: `,
		`{"trajectories":[{"trid":1.5}]}`: `"error":"decode: `,
		`null`:                            `"error":"no trajectories"`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trajectories", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("body %q: %d %s, want 400 with %s", body, rec.Code, rec.Body, want)
		}
	}
}

var (
	benchBodiesOnce          sync.Once
	durableBody, preloadBody []byte
	benchBodiesErr           error
)

// benchBodies returns two bodies the serve-path benchmark sends: the
// first 4-trajectory ingest of ingest_durable (47,230 bytes) and the
// first 50-trajectory preload batch (622,669 bytes), built as bench/
// builds them from the ATL@0.5 hotspot pool.
func benchBodies(tb testing.TB) (durable, preload []byte) {
	tb.Helper()
	benchBodiesOnce.Do(func() {
		env, err := experiments.NewEnv(0.5)
		if err != nil {
			benchBodiesErr = err
			return
		}
		ds, err := env.Dataset("ATL", 5000)
		if err != nil {
			benchBodiesErr = err
			return
		}
		const preloadTrajs = 1000
		trs := append([]traj.Trajectory(nil), ds.Trajectories[preloadTrajs:preloadTrajs+4]...)
		for i := range trs {
			trs[i].ID = traj.ID(preloadTrajs + i)
		}
		if durableBody, benchBodiesErr = json.Marshal(FromDataset(traj.Dataset{Trajectories: trs})); benchBodiesErr != nil {
			return
		}
		preloadBody, benchBodiesErr = json.Marshal(FromDataset(traj.Dataset{Trajectories: ds.Trajectories[:50]}))
	})
	if benchBodiesErr != nil {
		tb.Fatal(benchBodiesErr)
	}
	return durableBody, preloadBody
}

// FuzzDecodeIngest is the decoder's differential oracle: for every
// input, decodeIngest and encoding/json either both fail or both
// succeed with equal values and bit-identical floats.
func FuzzDecodeIngest(f *testing.F) {
	durable, _ := benchBodies(f)
	f.Add(durable)
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	for n := 0; n <= len(twoTrajectories); n++ {
		f.Add([]byte(twoTrajectories[:n]))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstJSON(t, body)
	})
}

var decodeSink IngestRequest

func BenchmarkDecodeIngest(b *testing.B) {
	durable, preload := benchBodies(b)
	for _, body := range []struct {
		name string
		data []byte
	}{{"durable_4", durable}, {"preload_50", preload}} {
		b.Run(body.name+"/decoder", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body.data)))
			for i := 0; i < b.N; i++ {
				req, err := decodeIngest(bytes.NewReader(body.data), int64(len(body.data)))
				if err != nil {
					b.Fatal(err)
				}
				decodeSink = req
			}
		})
		b.Run(body.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body.data)))
			for i := 0; i < b.N; i++ {
				var req IngestRequest
				if err := json.NewDecoder(bytes.NewReader(body.data)).Decode(&req); err != nil {
					b.Fatal(err)
				}
				decodeSink = req
			}
		})
	}
}
