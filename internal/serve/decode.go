package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// Request decoding. An /infer body is read whole into a pooled buffer,
// then scanned for the canonical shape {"data":[n,n,…]} by a hand-written
// loop. Anything outside that subset falls back to encoding/json on the
// same bytes, so encoding/json stays the specification: the accepted
// bodies, the decoded values and every error message are its own.
//
// Only the read buffer is pooled. The decoded float slice is not: a
// batched request that is cancelled can still be read by a batch worker
// that already assembled it, so it must outlive the handler.

const (
	// maxBodyBytes bounds an /infer body.
	maxBodyBytes = 64 << 20
	// maxPooledBody is the largest buffer returned to bodyPool, so one
	// huge body does not stay resident.
	maxPooledBody = 1 << 20
)

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readInferRequest reads r's body, at most maxBodyBytes, and decodes it
// for a model whose input holds want values.
func readInferRequest(w http.ResponseWriter, r *http.Request, want int) (InferRequest, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return InferRequest{}, err
	}
	return decodeInfer(buf.Bytes(), want)
}

// decodeInfer decodes body exactly as json.NewDecoder(...).Decode into an
// InferRequest would: the fast path when body is in the subset and holds
// at most want values, encoding/json otherwise. The result does not
// reference body.
func decodeInfer(body []byte, want int) (InferRequest, error) {
	if data, ok := scanInfer(body, want); ok {
		return InferRequest{Data: data}, nil
	}
	var req InferRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// scanInfer parses ws {ws "data" ws : ws [ws n ws (, ws n ws)*] ws }
// followed by anything (a json.Decoder stops after the first value), with
// each n in the JSON number grammar and parsed by strconv.ParseFloat at
// 32 bits, the call encoding/json makes for a float32. It reports false
// for every other body, for a value ParseFloat refuses, and for more than
// want values.
func scanInfer(b []byte, want int) ([]float32, bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if len(b)-i < 6 || string(b[i:i+6]) != `"data"` {
		return nil, false
	}
	i = skipSpace(b, i+6)
	if i >= len(b) || b[i] != ':' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if i >= len(b) || b[i] != '[' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	// Every value takes at least two bytes of body ("n,"), so a short body
	// cannot make the server allocate a full input.
	data := make([]float32, 0, min(want, (len(b)-i)/2+1))
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			j := scanNumber(b, i)
			if j < 0 || len(data) == want {
				return nil, false
			}
			f, err := strconv.ParseFloat(string(b[i:j]), 32)
			if err != nil {
				return nil, false
			}
			data = append(data, float32(f))
			i = skipSpace(b, j)
			if i >= len(b) {
				return nil, false
			}
			if b[i] == ']' {
				i++
				break
			}
			if b[i] != ',' {
				return nil, false
			}
			i = skipSpace(b, i+1)
		}
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != '}' {
		return nil, false
	}
	return data, true
}

// scanNumber returns the end of the number token
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? starting at b[i], or -1
// when none starts there.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace skips JSON whitespace: space, tab, newline, carriage return.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
