package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"yat/internal/mediator"
	"yat/internal/serve/wire"
)

// oracle holds the expected POST /ask response of every distinct ask,
// per source version, built by a different execution path than the one
// served. Bodies are compared from the "count" field on: the leading
// generation number is a server-side counter, not part of the answer.
type oracle struct {
	byAsk [][]expectation // change points, ascending version
}

type expectation struct {
	version int
	body    []byte
}

// buildOracle computes expectations for versions 0..maxVersion (0 when
// the workload sends no refreshes). hot-ask and refresh-churn are
// checked against a full-materialization mediator, fanout-ask against
// one unsharded demand mediator.
func buildOracle(s *spec, maxVersion int) (*oracle, error) {
	refAt := func(v int) *mediator.Mediator {
		in := s.store
		if v > 0 {
			in = s.script.merged(v)
		}
		return mediator.New(s.prog, in, mediator.WithDemandDriven(s.shards > 0))
	}
	o := &oracle{byAsk: make([][]expectation, len(s.asks))}
	ref := refAt(0)
	for i, a := range s.asks {
		body, err := expectedBody(ref, a)
		if err != nil {
			return nil, err
		}
		o.byAsk[i] = []expectation{{0, body}}
	}
	for v := 1; v <= maxVersion; v++ {
		_, touched := s.affected(s.script.steps[v-1])
		ref := refAt(v)
		for _, i := range touched {
			body, err := expectedBody(ref, s.asks[i])
			if err != nil {
				return nil, err
			}
			last := o.byAsk[i][len(o.byAsk[i])-1]
			if !bytes.Equal(last.body, body) {
				o.byAsk[i] = append(o.byAsk[i], expectation{v, body})
			}
		}
	}
	return o, nil
}

func expectedBody(ref *mediator.Mediator, a ask) ([]byte, error) {
	answers, err := ref.Ask(a.Pattern, a.Functors...)
	if err != nil {
		return nil, fmt.Errorf("reference ask %q %v: %w", a.Pattern, a.Functors, err)
	}
	return renderAsk(answers)
}

// renderAsk encodes answers exactly as the server's POST /ask does
// (wire.AskResponse, two-space indented), without the generation.
func renderAsk(answers []mediator.Answer) ([]byte, error) {
	resp := wire.AskResponse{Count: len(answers), Answers: make([]wire.AskAnswer, 0, len(answers))}
	for _, a := range answers {
		wa := wire.AskAnswer{Name: a.Name.String()}
		if len(a.Binding) > 0 {
			wa.Binding = make(map[string]string, len(a.Binding))
			for k, v := range a.Binding {
				wa.Binding[k] = v.Display()
			}
		}
		resp.Answers = append(resp.Answers, wa)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return answerPart(buf.Bytes()), nil
}

var countKey = []byte(`"count":`)

// answerPart drops everything before the "count" field.
func answerPart(body []byte) []byte {
	if i := bytes.Index(body, countKey); i >= 0 {
		return body[i:]
	}
	return body
}

// check reports whether body is the expected response of ask i at
// some source version in [lo, hi]: an ask racing a refresh may see the
// version before or after it.
func (o *oracle) check(i int, body []byte, lo, hi int) bool {
	exps := o.byAsk[i]
	got := answerPart(body)
	for k, e := range exps {
		end := int(^uint(0) >> 1)
		if k+1 < len(exps) {
			end = exps[k+1].version - 1
		}
		if e.version <= hi && end >= lo && bytes.Equal(e.body, got) {
			return true
		}
	}
	return false
}
