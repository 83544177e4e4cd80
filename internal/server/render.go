package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"repro/internal/neat"
	"repro/internal/roadnet"
	"repro/internal/session"
)

// A /v1/clusters body is built once per miss, as the bytes
// json.NewEncoder(w).Encode would write for the ClusterResponse of the
// read: each flow's object is json.Marshal of its FlowDTO, kept on the
// snapshot and shared by every read of it, and the envelope around the
// objects is appended by hand into one slice of exactly the body's
// length. The memo and the last-good fallback keep those bytes, so a
// hit writes them as they are (DESIGN.md §15.8).

// clusterBody is a ClusterResponse whose flow objects are already
// encoded.
type clusterBody struct {
	level        string
	baseClusters int
	flows        [][]byte
	clusters     []bodyCluster
	elapsedMs    float64
	stale        bool
}

// bodyCluster is one ClusterDTO with its flows' objects. Nil flows
// encode as null, like a nil []FlowDTO.
type bodyCluster struct {
	flows       [][]byte
	cardinality int
}

const (
	keyLevel        = `{"level":`
	keyBaseClusters = `,"base_clusters":`
	keyFlows        = `,"flows":[`
	keyClusters     = `,"clusters":[`
	keyClusterFlows = `{"flows":`
	keyCardinality  = `,"cardinality":`
	keyElapsed      = `,"elapsed_ms":`
	staleField      = `,"stale":true`
)

// encodeFlow renders one flow's object: json.Marshal of its FlowDTO.
func encodeFlow(g *roadnet.Graph, f *neat.FlowCluster) ([]byte, error) {
	dto := FlowDTO{
		RouteLength: f.RouteLength(g),
		Cardinality: f.Cardinality(),
		Density:     f.Density(),
	}
	if len(f.Route) > 0 {
		dto.Route = make([]int32, len(f.Route))
		for i, seg := range f.Route {
			dto.Route[i] = int32(seg)
		}
	}
	return json.Marshal(dto)
}

// renderClusters builds the body of a /v1/clusters read that produced
// res, taking each flow's object from sn (see Snapshot.FlowObjects).
func renderClusters(sn *session.Snapshot, g *roadnet.Graph, res *neat.Result, baseClusters int, elapsedMs float64) ([]byte, error) {
	n := len(res.Flows)
	for _, c := range res.Clusters {
		n += len(c.Flows)
	}
	flows := make([]*neat.FlowCluster, 0, n)
	flows = append(flows, res.Flows...)
	for _, c := range res.Clusters {
		flows = append(flows, c.Flows...)
	}
	objs := make([][]byte, n)
	if err := sn.FlowObjects(flows, objs, func(f *neat.FlowCluster) ([]byte, error) { return encodeFlow(g, f) }); err != nil {
		return nil, err
	}
	b := clusterBody{level: res.Level.String(), baseClusters: baseClusters, elapsedMs: elapsedMs}
	b.flows, objs = objs[:len(res.Flows)], objs[len(res.Flows):]
	b.clusters = make([]bodyCluster, len(res.Clusters))
	for i, c := range res.Clusters {
		b.clusters[i].cardinality = c.Cardinality()
		if k := len(c.Flows); k > 0 {
			b.clusters[i].flows, objs = objs[:k], objs[k:]
		}
	}
	return b.render()
}

// render returns the body, including json.Encoder's trailing newline,
// in a slice whose length and capacity are both the body's length. It
// fails where encoding/json fails: on a non-finite elapsed_ms.
func (b *clusterBody) render() ([]byte, error) {
	if math.IsInf(b.elapsedMs, 0) || math.IsNaN(b.elapsedMs) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(b.elapsedMs, 'g', -1, 64)}
	}
	var num [32]byte
	size := len(keyLevel) + len(appendString(num[:0], b.level)) +
		len(keyBaseClusters) + len(strconv.AppendInt(num[:0], int64(b.baseClusters), 10)) +
		len(keyElapsed) + len(appendFloat(num[:0], b.elapsedMs)) + len("}\n")
	if len(b.flows) > 0 {
		size += len(keyFlows) + objectsLen(b.flows) + len("]")
	}
	if len(b.clusters) > 0 {
		size += len(keyClusters) + len(b.clusters) - 1 + len("]")
		for _, c := range b.clusters {
			size += len(keyClusterFlows) + len(keyCardinality) + len("}") +
				len(strconv.AppendInt(num[:0], int64(c.cardinality), 10))
			if c.flows == nil {
				size += len("null")
			} else {
				size += len("[") + objectsLen(c.flows) + len("]")
			}
		}
	}
	if b.stale {
		size += len(staleField)
	}

	out := make([]byte, 0, size)
	out = append(out, keyLevel...)
	out = appendString(out, b.level)
	out = append(out, keyBaseClusters...)
	out = strconv.AppendInt(out, int64(b.baseClusters), 10)
	if len(b.flows) > 0 {
		out = append(out, keyFlows...)
		out = appendObjects(out, b.flows)
		out = append(out, ']')
	}
	if len(b.clusters) > 0 {
		out = append(out, keyClusters...)
		for i, c := range b.clusters {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, keyClusterFlows...)
			if c.flows == nil {
				out = append(out, "null"...)
			} else {
				out = append(out, '[')
				out = appendObjects(out, c.flows)
				out = append(out, ']')
			}
			out = append(out, keyCardinality...)
			out = strconv.AppendInt(out, int64(c.cardinality), 10)
			out = append(out, '}')
		}
		out = append(out, ']')
	}
	out = append(out, keyElapsed...)
	out = appendFloat(out, b.elapsedMs)
	if b.stale {
		out = append(out, staleField...)
	}
	return append(out, '}', '\n'), nil
}

// objectsLen is the length of objs joined by commas.
func objectsLen(objs [][]byte) int {
	n := len(objs) - 1
	for _, o := range objs {
		n += len(o)
	}
	return max(n, 0)
}

func appendObjects(dst []byte, objs [][]byte) []byte {
	for i, o := range objs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, o...)
	}
	return dst
}

// appendString appends s as encoding/json writes a string. A string of
// printable ASCII that needs no escape (every level name) is quoted as
// it is; any other goes through json.Marshal, which escapes quotes,
// backslashes, control characters, <, > and &, U+2028, U+2029 and
// invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends a finite f as encoding/json writes a float64:
// the shortest representation, in exponent form below 1e-6 and from
// 1e21 up, with a one-digit negative exponent not zero-padded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// staleBody returns body with `"stale":true` spliced in before its
// closing brace: exactly what encoding/json writes once Stale, the last
// field and omitempty, is set. body must be a render of a fresh read.
func staleBody(body []byte) []byte {
	end := len(body) - len("}\n")
	out := make([]byte, 0, len(body)+len(staleField))
	out = append(out, body[:end]...)
	out = append(out, staleField...)
	return append(out, body[end:]...)
}

// writeBody writes a rendered JSON body with its Content-Length.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
