package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"yat/internal/engine"
	"yat/internal/federate"
	"yat/internal/mediator"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// wireAnswers renders answers as wire.AskAnswer values; withKeys adds
// each answer's canonical merge key. With referenceAskResponse it is
// the reflection path through encoding/json that renderAsk
// replaced, kept here as the oracle the hand-written writer must
// match byte for byte.
func wireAnswers(answers []mediator.Answer, withKeys bool) []AskAnswer {
	out := make([]AskAnswer, 0, len(answers))
	for _, a := range answers {
		wa := AskAnswer{Name: a.Name.String()}
		if len(a.Binding) > 0 {
			wa.Binding = make(map[string]string, len(a.Binding))
			for k, v := range a.Binding {
				wa.Binding[k] = v.Display()
			}
		}
		if withKeys {
			wa.Key = a.MergeKey()
		}
		out = append(out, wa)
	}
	return out
}

// referenceAskResponse encodes the response document through
// json.Encoder with SetIndent("", "  ").
func referenceAskResponse(t testing.TB, gen int64, answers []mediator.Answer, withKeys bool, profile json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(AskResponse{
		Generation: gen,
		Count:      len(answers),
		Answers:    wireAnswers(answers, withKeys),
		Profile:    profile,
	}); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return buf.Bytes()
}

func checkAskResponse(t testing.TB, gen int64, answers []mediator.Answer, withKeys bool, profile json.RawMessage) {
	t.Helper()
	want := referenceAskResponse(t, gen, answers, withKeys, profile)
	got, err := renderAsk(gen, answers, withKeys, profile)
	if err != nil {
		t.Fatalf("renderAsk: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("writer drifted from encoding/json\n got %q\nwant %q", got, want)
	}
}

// answerReader decodes fuzz bytes into an answer set, so the fuzzer
// steers value kinds, names and every byte of every string.
type answerReader struct{ data []byte }

func (r *answerReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *answerReader) str() string {
	n := int(r.byte() % 16)
	if n > len(r.data) {
		n = len(r.data)
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

func (r *answerReader) value(depth int) tree.Value {
	switch k := r.byte() % 6; {
	case k == 0:
		return tree.Symbol(r.str())
	case k == 1:
		return tree.String(r.str())
	case k == 2:
		return tree.Int(int64(r.byte())<<8 | int64(r.byte()) - 1<<15)
	case k == 3:
		specials := []float64{0.5, -1, 1e21, 3, math.Inf(1), math.NaN()}
		return tree.Float(specials[r.byte()%byte(len(specials))])
	case k == 4 && depth < 2:
		return tree.Ref{Name: r.name(depth + 1)}
	default:
		return tree.Bool(r.byte()%2 == 0)
	}
}

func (r *answerReader) name(depth int) tree.Name {
	n := tree.Name{Functor: r.str()}
	for i := int(r.byte() % 3); i > 0; i-- {
		n.Args = append(n.Args, r.value(depth))
	}
	return n
}

func (r *answerReader) answers() []mediator.Answer {
	var out []mediator.Answer
	for i := int(r.byte() % 8); i > 0; i-- {
		a := mediator.Answer{Name: r.name(0)}
		if nb := int(r.byte() % 4); nb > 0 {
			a.Binding = engine.Binding{}
			for ; nb > 0; nb-- {
				a.Binding[r.str()] = r.value(0)
			}
		}
		out = append(out, a)
	}
	return out
}

// FuzzAskResponse checks the hand-written AskResponse writer against
// encoding/json over generated answer sets: every value kind, names
// and bindings carrying <>&, control bytes, invalid UTF-8 and the
// U+2028/U+2029 separators, empty bindings, zero answers, ?keys=1 and
// an EXPLAIN profile.
func FuzzAskResponse(f *testing.F) {
	f.Add(byte(0), []byte{}, []byte(nil))
	f.Add(byte(1), []byte("\x03\x05Pview\x01\x01\x04<a&b>\x02\x01N\x01\x03\"q\"\x01C\x00\x02s"), []byte(`{"rules":[{"rule":"R"}]}`))
	f.Add(byte(3), []byte("\x02\x03P\x00\x01\x00\x04\x01\x02\x00\x10\x02\x04\x04Ref\x00\x02\x05\x06\xe2\x80\xa8\xe2\x80\xa9\x00"), []byte("  {\"a\" : [ 1, {} , [] ],\n \"b\":\"< >\" } \n"))
	f.Add(byte(2), []byte("\x01\x04\xff\xfe\x80a\x02\x00\x03\xc3\x28z\x05\x01\x05\x03\x0b\x0c\x0a\x0d\x09\x03\x01\x01\x7f"), []byte("[]"))
	f.Add(byte(5), []byte("\x04\x01x\x00\x00\x01y\x00\x00\x01z\x00\x00\x01w\x00\x00"), []byte(`"text"`))
	f.Fuzz(func(t *testing.T, flags byte, answerData, profile []byte) {
		answers := (&answerReader{data: answerData}).answers()
		if !json.Valid(profile) {
			profile = nil
		}
		checkAskResponse(t, int64(flags>>2)-3, answers, flags&1 != 0, profile)
	})
}

// TestAskResponseMatchesEncoder pins the served bytes of every ask
// surface — POST /ask with and without ?keys=1, POST /ask?explain=1
// and GET /explain — to the encoding/json rendering of the same
// answers, over the selective workload.
func TestAskResponseMatchesEncoder(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(12, 2, 6, 3)
	_, ts := newTestServer(t, Config{Prog: prog, Inputs: inputs, Pool: 1})
	ref := mediator.New(prog, inputs, mediator.WithDemandDriven(true))
	const pattern = `view < -> name -> N, -> city -> C, -> zip -> Z >`

	fetch := func(req *http.Request) []byte {
		t.Helper()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", req.Method, req.URL, resp.StatusCode, body)
		}
		if cl := resp.Header.Get("Content-Length"); cl != "" && cl != strconv.Itoa(len(body)) {
			t.Fatalf("Content-Length %s, body %d bytes", cl, len(body))
		}
		return body
	}
	for _, functors := range [][]string{nil, {"Pview2"}, {"Pview1", "Pview3"}} {
		want, err := ref.Ask(pattern, functors...)
		if err != nil {
			t.Fatal(err)
		}
		reqBody, _ := json.Marshal(AskRequest{Pattern: pattern, Functors: functors})
		for _, query := range []string{"", "?keys=1", "?explain=1", "?explain=1&keys=1"} {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ask"+query, bytes.NewReader(reqBody))
			got := fetch(req)
			var doc AskResponse
			if err := json.Unmarshal(got, &doc); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(query, "explain") && doc.Profile == nil {
				t.Fatalf("ask%s: no profile", query)
			}
			if exp := referenceAskResponse(t, doc.Generation, want, strings.Contains(query, "keys"), doc.Profile); !bytes.Equal(got, exp) {
				t.Fatalf("ask%s %v: served bytes differ from encoding/json\n got %s\nwant %s", query, functors, got, exp)
			}
		}
		u := ts.URL + "/explain?pattern=" + url.QueryEscape(pattern) + "&functors=" + strings.Join(functors, ",")
		req, _ := http.NewRequest(http.MethodGet, u, nil)
		got := fetch(req)
		var doc AskResponse
		if err := json.Unmarshal(got, &doc); err != nil {
			t.Fatal(err)
		}
		if exp := referenceAskResponse(t, doc.Generation, want, false, doc.Profile); !bytes.Equal(got, exp) {
			t.Fatalf("explain %v: served bytes differ from encoding/json\n got %s\nwant %s", functors, got, exp)
		}
	}
}

// BenchmarkServeAsk drives the served /ask path in process over
// httptest, on the benchmark's selective:8 over BrochureStore(400, 2,
// 40, 1) shapes: "hot" asks the Pview3 view of one mediator lane (a
// memo hit after the first ask, 40 answers), "fanout" the bare ask
// through a 2-shard federation (both children memo hits, 320 answers
// merged). Medians of -cpu 2 -benchtime 2000x -count 5 on a 2-vCPU
// Intel Xeon, go1.24.0:
//
//	BenchmarkServeAsk/hot-2        84 µs/op    20.2 kB/op    108 allocs/op
//	BenchmarkServeAsk/fanout-2    366 µs/op   130.6 kB/op    142 allocs/op
//
// The reflection encoder with a re-sorting merge measured 216 µs,
// 66.2 kB, 840 allocs (hot) and 2266 µs, 684.5 kB, 11051 allocs
// (fanout) on the same machine. allocs/op is the CI-gated figure.
func BenchmarkServeAsk(b *testing.B) {
	prog := yatl.MustParse(workload.SelectiveProgram(8))
	inputs := workload.BrochureStore(400, 2, 40, 1)
	const pattern = `view < -> name -> N, -> city -> C, -> zip -> Z >`
	for _, bc := range []struct {
		name     string
		cfg      func(b *testing.B) Config
		functors []string
	}{
		{"hot", func(*testing.B) Config { return Config{Prog: prog, Inputs: inputs, Pool: 1} }, []string{"Pview3"}},
		{"fanout", func(b *testing.B) Config {
			fed, err := federate.New(federate.Config{Programs: []*yatl.Program{prog}, Shards: 2, Inputs: inputs})
			if err != nil {
				b.Fatal(err)
			}
			return Config{Askers: []mediator.Asker{fed}, Prog: prog, Inputs: inputs}
		}, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := New(bc.cfg(b))
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			// One kept-alive connection per parallel client.
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
			defer client.CloseIdleConnections()
			body, _ := json.Marshal(AskRequest{Pattern: pattern, Functors: bc.functors})
			ask := func() error {
				resp, err := client.Post(ts.URL+"/ask", "application/json", bytes.NewReader(body))
				if err != nil {
					return err
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
				return err
			}
			if err := ask(); err != nil { // warm the memo
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := ask(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
