package serve

// Golden tests pinning the HTTP API surface: the exact /statusz JSON
// field set and the structured error body (status + code + message) of
// every client-reachable 4xx/5xx path. These exist so an accidental field
// rename or taxonomy change fails a test instead of breaking dashboards
// and client retry logic silently.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"bitflow/internal/workload"
)

func sortedKeys(m map[string]any) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func getStatuszRaw(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenStatuszFieldSet pins the /statusz JSON schema: the exact
// top-level keys per serving mode, the exact exec and batch section keys,
// and the metrics key set (required counters plus the known
// traffic-dependent omitempty fields — anything else is a schema change).
func TestGoldenStatuszFieldSet(t *testing.T) {
	metricsRequired := []string{
		"requests", "ok", "bad_requests", "shed", "panics_recovered",
		"queue_depth", "in_flight",
		"latency_samples", "latency_p50", "latency_p99", "latency_p50_us", "latency_p99_us",
	}
	metricsOptional := map[string]bool{
		"layers": true, "batches": true, "batch_items": true,
		"batch_mean_occupancy": true, "batch_max_occupancy": true,
		"batch_flush_window_expired": true, "batch_flush_size_cap": true,
		"batch_flush_drain": true,
	}
	execKeys := []string{"budget", "busy", "dispatches", "gomaxprocs", "num_cpu", "source", "workers"}
	batchKeys := []string{"batches", "flush_drain", "flush_size_cap", "flush_window_expired",
		"max_batch", "max_occupancy", "mean_occupancy", "window"}

	checkMetrics := func(t *testing.T, m map[string]any) {
		metrics, ok := m["metrics"].(map[string]any)
		if !ok {
			t.Fatalf("metrics section missing or not an object: %v", m["metrics"])
		}
		for _, k := range metricsRequired {
			if _, ok := metrics[k]; !ok {
				t.Errorf("metrics.%s missing", k)
			}
		}
		req := map[string]bool{}
		for _, k := range metricsRequired {
			req[k] = true
		}
		for k := range metrics {
			if !req[k] && !metricsOptional[k] {
				t.Errorf("metrics.%s is not in the pinned schema — update the golden test deliberately", k)
			}
		}
	}

	t.Run("unbatched", func(t *testing.T) {
		ts := httptest.NewServer(New(testNetwork(t), 1).Handler())
		defer ts.Close()
		m := getStatuszRaw(t, ts.URL)
		want := []string{"exec", "max_queue", "metrics", "model", "models", "ready", "replicas",
			"replicas_available", "request_timeout", "uptime", "uptime_seconds", "version"}
		if got := sortedKeys(m); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("top-level keys:\n got %v\nwant %v", got, want)
		}
		if got := sortedKeys(m["exec"].(map[string]any)); fmt.Sprint(got) != fmt.Sprint(execKeys) {
			t.Errorf("exec keys:\n got %v\nwant %v", got, execKeys)
		}
		checkMetrics(t, m)
	})

	t.Run("autoscaled", func(t *testing.T) {
		srv := NewWithConfig(testNetwork(t), Config{Replicas: 1, Autoscale: quickAutoscale(2)})
		ts := httptest.NewServer(srv.Handler())
		defer closeServer(t, srv)
		defer ts.Close()
		m := getStatuszRaw(t, ts.URL)
		want := []string{"control", "exec", "max_queue", "metrics", "model", "models", "ready", "replicas",
			"replicas_available", "request_timeout", "uptime", "uptime_seconds", "version"}
		if got := sortedKeys(m); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("top-level keys:\n got %v\nwant %v", got, want)
		}
		ctrl, ok := m["control"].(map[string]any)
		if !ok {
			t.Fatalf("control section missing or not an object: %v", m["control"])
		}
		ctrlKeys := []string{"actuations", "bounds", "corrupt_ticks", "setpoints", "state", "static", "ticks"}
		delete(ctrl, "decisions") // tick-dependent omitempty ledger
		if got := sortedKeys(ctrl); fmt.Sprint(got) != fmt.Sprint(ctrlKeys) {
			t.Errorf("control keys:\n got %v\nwant %v", got, ctrlKeys)
		}
		spKeys := []string{"max_batch", "replicas", "window"}
		for _, section := range []string{"setpoints", "static"} {
			sp, ok := ctrl[section].(map[string]any)
			if !ok {
				t.Fatalf("control.%s missing or not an object: %v", section, ctrl[section])
			}
			if got := sortedKeys(sp); fmt.Sprint(got) != fmt.Sprint(spKeys) {
				t.Errorf("control.%s keys:\n got %v\nwant %v", section, got, spKeys)
			}
		}
		boundsKeys := []string{"max_batch", "max_replicas", "max_window",
			"min_batch", "min_replicas", "min_window"}
		bounds, ok := ctrl["bounds"].(map[string]any)
		if !ok {
			t.Fatalf("control.bounds missing or not an object: %v", ctrl["bounds"])
		}
		if got := sortedKeys(bounds); fmt.Sprint(got) != fmt.Sprint(boundsKeys) {
			t.Errorf("control.bounds keys:\n got %v\nwant %v", got, boundsKeys)
		}
		checkMetrics(t, m)
	})

	t.Run("batched", func(t *testing.T) {
		srv := NewWithConfig(testNetwork(t), Config{Replicas: 1, Batching: true})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		// One real request so the batch counters carry traffic.
		x := workload.RandTensor(workload.NewRNG(160), 8, 8, 64)
		if resp, _ := postInfer(t, ts, x.Data); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm request: status %d", resp.StatusCode)
		}
		m := getStatuszRaw(t, ts.URL)
		want := []string{"batch", "exec", "max_queue", "metrics", "model", "models", "ready", "replicas",
			"replicas_available", "request_timeout", "uptime", "uptime_seconds", "version"}
		if got := sortedKeys(m); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("top-level keys:\n got %v\nwant %v", got, want)
		}
		if got := sortedKeys(m["batch"].(map[string]any)); fmt.Sprint(got) != fmt.Sprint(batchKeys) {
			t.Errorf("batch keys:\n got %v\nwant %v", got, batchKeys)
		}
		checkMetrics(t, m)
	})
}

// errorBody fetches an error response and decodes the structured body.
func errorBody(t *testing.T, resp *http.Response) (int, ErrorResponse) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("error body is not the structured JSON shape: %q (%v)", raw, err)
	}
	return resp.StatusCode, e
}

// TestGoldenErrorBodies pins status, code, and message for every
// validation-layer 4xx path plus the 500 panic body. Messages marked
// exact are part of the API surface; prefix checks cover messages that
// embed runtime values (decoder errors, panic stacks).
func TestGoldenErrorBodies(t *testing.T) {
	net := testNetwork(t)
	s := newServer(metaFor(net), &faultBackend{net: net, trigger: 999}, Config{Replicas: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := make([]float32, 8*8*64)
	bad[0] = 999 // faultBackend panic trigger

	cases := []struct {
		name        string
		do          func() (*http.Response, error)
		status      int
		code        string
		exactMsg    string // "" when prefix applies
		msgPrefix   string
		allowHeader string
	}{
		{
			name:        "405 wrong method on /infer",
			do:          func() (*http.Response, error) { return http.Get(ts.URL + "/infer") },
			status:      http.StatusMethodNotAllowed,
			code:        "bad_request",
			exactMsg:    "POST required",
			allowHeader: "POST",
		},
		{
			name: "405 wrong method on /model",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/model", "application/json", strings.NewReader("{}"))
			},
			status:      http.StatusMethodNotAllowed,
			code:        "bad_request",
			exactMsg:    "GET required",
			allowHeader: "GET, HEAD",
		},
		{
			name: "415 wrong content type",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/infer", "text/plain", strings.NewReader("{}"))
			},
			status:   http.StatusUnsupportedMediaType,
			code:     "bad_request",
			exactMsg: `Content-Type "text/plain" not supported; use application/json`,
		},
		{
			name: "415 media type that only starts with application/json",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/infer", "application/jsonx", strings.NewReader("{}"))
			},
			status:   http.StatusUnsupportedMediaType,
			code:     "bad_request",
			exactMsg: `Content-Type "application/jsonx" not supported; use application/json`,
		},
		{
			// Past the media-type check: the body's length is what fails.
			name: "application/json with a charset parameter is accepted",
			do: func() (*http.Response, error) {
				body, _ := json.Marshal(InferRequest{Data: []float32{1, 2, 3}})
				return http.Post(ts.URL+"/infer", "application/json; charset=utf-8", bytes.NewReader(body))
			},
			status:   http.StatusBadRequest,
			code:     "bad_request",
			exactMsg: "input has 3 values, model wants 4096 (8x8x64 NHWC)",
		},
		{
			name: "400 malformed JSON",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/infer", "application/json", strings.NewReader(`{"data": [1,`))
			},
			status:    http.StatusBadRequest,
			code:      "bad_request",
			msgPrefix: "bad request: ",
		},
		{
			name: "400 non-finite input token",
			do: func() (*http.Response, error) {
				return http.Post(ts.URL+"/infer", "application/json", strings.NewReader(`{"data": [NaN]}`))
			},
			status:    http.StatusBadRequest,
			code:      "bad_request",
			msgPrefix: "bad request: invalid character",
		},
		{
			name: "400 wrong input length",
			do: func() (*http.Response, error) {
				body, _ := json.Marshal(InferRequest{Data: []float32{1, 2, 3}})
				return http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
			},
			status:   http.StatusBadRequest,
			code:     "bad_request",
			exactMsg: "input has 3 values, model wants 4096 (8x8x64 NHWC)",
		},
		{
			name: "500 backend panic",
			do: func() (*http.Response, error) {
				body, _ := json.Marshal(InferRequest{Data: bad})
				return http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
			},
			status:    http.StatusInternalServerError,
			code:      "panic",
			msgPrefix: "inference failed: ",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			if tc.allowHeader != "" && resp.Header.Get("Allow") != tc.allowHeader {
				t.Errorf("Allow header %q, want %q", resp.Header.Get("Allow"), tc.allowHeader)
			}
			status, e := errorBody(t, resp)
			if status != tc.status {
				t.Errorf("status %d, want %d", status, tc.status)
			}
			if e.Code != tc.code {
				t.Errorf("code %q, want %q", e.Code, tc.code)
			}
			if tc.exactMsg != "" && e.Error != tc.exactMsg {
				t.Errorf("message %q, want exactly %q", e.Error, tc.exactMsg)
			}
			if tc.msgPrefix != "" && !strings.HasPrefix(e.Error, tc.msgPrefix) {
				t.Errorf("message %q, want prefix %q", e.Error, tc.msgPrefix)
			}
		})
	}
}

// TestGoldenQueueFullBody pins the 429 saturation body: one replica, zero
// queue slots, one wedged request — the next arrival must shed with the
// exact queue_full message and a Retry-After hint.
func TestGoldenQueueFullBody(t *testing.T) {
	net := testNetwork(t)
	bk := newBlockingBackend(net)
	s := newServer(metaFor(net), bk, Config{
		Replicas: 1, MaxQueue: -1, RequestTimeout: 10 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	x := workload.RandTensor(workload.NewRNG(161), 8, 8, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		postInfer(t, ts, x.Data) // wedges in the backend until release
	}()
	<-bk.entered

	body, _ := json.Marshal(InferRequest{Data: x.Data})
	resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	status, e := errorBody(t, resp)
	if status != http.StatusTooManyRequests || e.Code != "queue_full" {
		t.Errorf("status %d code %q, want 429 queue_full", status, e.Code)
	}
	if want := "admission queue full (0 waiting, 0 allowed); retry later"; e.Error != want {
		t.Errorf("message %q, want exactly %q", e.Error, want)
	}

	close(bk.release)
	<-done
}

// TestGoldenDeadlineBody pins the queued-deadline 503 body: the wedged
// replica never frees up, so a queued request must shed with the exact
// deadline message once RequestTimeout expires.
func TestGoldenDeadlineBody(t *testing.T) {
	net := testNetwork(t)
	bk := newBlockingBackend(net)
	s := newServer(metaFor(net), bk, Config{
		Replicas: 1, MaxQueue: 4, RequestTimeout: 80 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	x := workload.RandTensor(workload.NewRNG(162), 8, 8, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		postInfer(t, ts, x.Data)
	}()
	<-bk.entered

	body, _ := json.Marshal(InferRequest{Data: x.Data})
	resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	status, e := errorBody(t, resp)
	if status != http.StatusServiceUnavailable || e.Code != "deadline" {
		t.Errorf("status %d code %q, want 503 deadline", status, e.Code)
	}
	if want := "deadline expired after 80ms waiting for a replica"; e.Error != want {
		t.Errorf("message %q, want exactly %q", e.Error, want)
	}

	close(bk.release)
	<-done
}

// TestGoldenValidateFiniteMessage pins the defence-in-depth non-finite
// message for future non-JSON ingest paths (the JSON decoder rejects the
// tokens before validateFinite can see them today).
func TestGoldenValidateFiniteMessage(t *testing.T) {
	cases := []struct {
		val  float32
		want string
	}{
		{float32(math.NaN()), "input[0] is NaN; inputs must be finite"},
		{float32(math.Inf(1)), "input[0] is +Inf; inputs must be finite"},
		{float32(math.Inf(-1)), "input[0] is -Inf; inputs must be finite"},
	}
	for _, tc := range cases {
		err := validateFinite([]float32{tc.val})
		if err == nil || err.Error() != tc.want {
			t.Errorf("validateFinite(%v) = %v, want %q", tc.val, err, tc.want)
		}
	}
}
