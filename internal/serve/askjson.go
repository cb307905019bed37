package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"unicode/utf8"

	"yat/internal/mediator"
	"yat/internal/tree"
)

// askBytesPerAnswer sizes a response buffer up front: a rendered
// answer of the selective views runs about 165 bytes, 260 with its
// merge key, so most responses fit without the buffer growing.
const askBytesPerAnswer = 192

// renderAsk renders the POST /ask (and GET /explain) response document
// into a fresh buffer sized from the answer count. The bytes are
// exactly those json.Encoder with SetIndent("", "  ") produces for the
// wire.AskResponse of the same answers — the reflection path, kept in
// the package tests as the oracle this writer is checked against — but
// the answers are rendered straight from their mediator form: no
// intermediate AskAnswer slice, no binding maps, no reflection. The
// only error is a profile that is not valid JSON.
func renderAsk(gen int64, answers []mediator.Answer, withKeys bool, profile json.RawMessage) ([]byte, error) {
	per := askBytesPerAnswer
	if withKeys {
		per *= 2
	}
	dst := make([]byte, 0, 128+per*len(answers))
	dst = append(dst, "{\n  \"generation\": "...)
	dst = strconv.AppendInt(dst, gen, 10)
	dst = append(dst, ",\n  \"count\": "...)
	dst = strconv.AppendInt(dst, int64(len(answers)), 10)
	dst = append(dst, ",\n  \"answers\": ["...)
	var (
		vars []string // binding variables of one answer, reused
		text []byte   // display form of one name or value, reused
	)
	for i := range answers {
		a := &answers[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    {\n      \"name\": "...)
		text = a.Name.AppendString(text[:0])
		dst = appendJSONString(dst, text)
		if len(a.Binding) > 0 {
			// encoding/json writes map keys in sorted order.
			vars = vars[:0]
			for v := range a.Binding {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			dst = append(dst, ",\n      \"binding\": {"...)
			for j, v := range vars {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, "\n        "...)
				dst = appendJSONString(dst, v)
				dst = append(dst, ": "...)
				text = tree.AppendDisplay(text[:0], a.Binding[v])
				dst = appendJSONString(dst, text)
			}
			dst = append(dst, "\n      }"...)
		}
		if withKeys {
			dst = append(dst, ",\n      \"key\": "...)
			dst = appendJSONString(dst, a.MergeKey())
		}
		dst = append(dst, "\n    }"...)
	}
	if len(answers) > 0 {
		dst = append(dst, "\n  "...)
	}
	dst = append(dst, ']')
	if len(profile) > 0 {
		dst = append(dst, ",\n  \"profile\": "...)
		var err error
		if dst, err = appendProfile(dst, profile); err != nil {
			return nil, err
		}
	}
	return append(dst, "\n}\n"...), nil
}

// appendProfile appends a raw EXPLAIN profile as the encoder embeds a
// json.RawMessage one level deep: compacted with HTML escaping, then
// re-indented at depth 1.
func appendProfile(dst []byte, profile json.RawMessage) ([]byte, error) {
	var compact, escaped, indented bytes.Buffer
	if err := json.Compact(&compact, profile); err != nil {
		return nil, err
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	if err := json.Indent(&indented, escaped.Bytes(), "  ", "  "); err != nil {
		return nil, err
	}
	return append(dst, indented.Bytes()...), nil
}

// htmlSafe marks the ASCII bytes encoding/json copies into a string
// verbatim when HTML escaping is on (the json.Encoder default).
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaped exactly
// as encoding/json escapes it with HTML escaping on: short escapes for
// quote, backslash and \b \f \n \r \t; \u00XX for the other control
// bytes and <, >, &; \ufffd for each byte of invalid UTF-8; and
// \u2028, \u2029 for the JavaScript line separators.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// Converting at most utf8.UTFMax bytes keeps the []byte form
		// allocation-free.
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// writeBody sends a rendered 200 JSON response in a single Write with
// an exact Content-Length.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
