package serve

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parseHeaderSplit is the parser parseHeader replaced — Split into
// lines, Split the request line, Split+ToLower the Connection tokens —
// kept as the reference the index-walking one is compared against.
func parseHeaderSplit(header []byte) (*Request, int, error) {
	lines := strings.Split(string(header), "\r\n")
	parts := strings.Split(lines[0], " ")
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return nil, 0, ErrBadRequest
	}
	req := &Request{Method: parts[0], Proto: parts[2]}
	target := parts[1]
	if i := strings.IndexByte(target, '?'); i >= 0 {
		req.Path, req.RawQuery = target[:i], target[i+1:]
	} else {
		req.Path = target
	}
	if req.Path == "" || req.Path[0] != '/' {
		return nil, 0, ErrBadRequest
	}
	contentLength := 0
	for _, ln := range lines[1:] {
		i := strings.IndexByte(ln, ':')
		if i < 0 {
			continue
		}
		k := strings.TrimSpace(ln[:i])
		v := strings.TrimSpace(ln[i+1:])
		req.hdrs = append(req.hdrs, hdrKV{k: k, v: v})
		if strings.EqualFold(k, "Content-Length") {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, 0, ErrBadRequest
			}
			contentLength = n
		}
	}
	req.Close = req.Proto == "HTTP/1.0"
	for _, tok := range strings.Split(req.Header("Connection"), ",") {
		switch strings.ToLower(strings.TrimSpace(tok)) {
		case "close":
			req.Close = true
		case "keep-alive":
			req.Close = false
		}
	}
	return req, contentLength, nil
}

// parityHeads are the header blocks of TestFrontParity's seven scripts
// (internal/shard/parity_test.go), blank line stripped as ReadRequest
// strips it.
var parityHeads = []string{
	"GET /echo?msg=a HTTP/1.1\r\nHost: t",
	"GET /echo?msg=b HTTP/1.1\r\nHost: t\r\nConnection: close",
	"GET /echo?msg=never HTTP/1.1\r\nHost: t",
	"BOGUS",
	"POST /echo HTTP/1.1\r\nContent-Length: 99999999",
	"GET /stream HTTP/1.1\r\nHost: t",
	"GET /echo?msg=behind HTTP/1.1\r\nHost: t",
}

func TestParseHeaderMatchesSplitParser(t *testing.T) {
	heads := append([]string{
		// malformed or odd, one reason each
		"",
		"GET / HTTP/1.1\r\nno colon here\r\nHost: t",
		"GET / HTTP/1.1\r\nX-Empty:\r\nHost: t",
		"GET / HTTP/1.1\r\n: value without a key",
		"GET / HTTP/1.0\r\nConnection: keep-alive",
		"GET / HTTP/1.0",
		"GET / HTTP/1.1\r\nConnection: Close, foo",
		"GET / HTTP/1.1\r\nCONNECTION:  foo ,\tKEEP-ALIVE , close",
		"GET / HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive", // first one decides
		"GET / HTTP/1.1\r\nConnection: \u212Aeep-alive, clo\u017Fe",     // ToLower maps the Kelvin sign to k, leaves long s alone
		"GET / HTTP/1.1\r\nConnection: close\xff",
		"GET / HTTP/1.1\r\nConnection: closed, keep-aliv",
		"GET  / HTTP/1.1", // two spaces: four parts
		"GET / HTTP/1.1 ", // trailing space: four parts
		" / HTTP/1.1",     // empty method is three parts
		"GET /",
		"GET / HTTP/2.0",
		"GET / HTTP/1.",
		"GET noslash HTTP/1.1",
		"GET ?q=1 HTTP/1.1",
		"GET /p?a=1?b=2 HTTP/1.1",
		"GET /p? HTTP/1.1",
		"POST / HTTP/1.1\r\ncontent-length: 12",
		"POST / HTTP/1.1\r\nContent-Length: 12\r\nContent-Length: 7",
		"POST / HTTP/1.1\r\nContent-Length: -1",
		"POST / HTTP/1.1\r\nContent-Length: twelve",
		"POST / HTTP/1.1\r\nContent-Length:",
		"GET / HTTP/1.1\r\n\tHost \t:\t t \r\nA:b:c",
		"GET / HTTP/1.1\r\nHost: t\r\n",     // trailing empty line
		"GET / HTTP/1.1\r\n\r\nHost: t",     // empty line in the middle
		"GET / HTTP/1.1\nHost: t",           // bare LF does not end a line
		"GET / HTTP/1.1\r\nHost: t\rX: y",   // nor does a bare CR
		"GET / HTTP/1.1\r\nHost: t\u00a0\r", // TrimSpace is Unicode-aware
	}, parityHeads...)
	for _, h := range heads {
		want, wantLen, wantErr := parseHeaderSplit([]byte(h))
		got, gotLen, gotErr := parseHeader([]byte(h))
		if gotErr != wantErr || gotLen != wantLen {
			t.Errorf("%q: got (len %d, err %v), want (len %d, err %v)", h, gotLen, gotErr, wantLen, wantErr)
			continue
		}
		if (got == nil) != (want == nil) {
			t.Errorf("%q: request nil-ness differs: got %v, want %v", h, got, want)
			continue
		}
		if got == nil {
			continue
		}
		if len(got.hdrs) == 0 {
			got.hdrs = nil // an empty pre-sized slice and a nil one are the same header list
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\n got %+v\nwant %+v", h, *got, *want)
		}
	}
}

// TestParseHeaderAllocs pins what the index walk is for: the string, the
// Request and the header slice, however many lines and tokens there are.
func TestParseHeaderAllocs(t *testing.T) {
	head := []byte("GET /echo?msg=hello HTTP/1.1\r\nHost: bench\r\nUser-Agent: x\r\nAccept: */*\r\nConnection: Keep-Alive, foo")
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := parseHeader(head); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("parseHeader allocates %.0f times per request, want <= 3", n)
	}
}

// TestAccessRecordMatchesSprintf pins the hand-built access record to the
// fmt form it replaced, byte for byte.
func TestAccessRecordMatchesSprintf(t *testing.T) {
	const maxInt64, minInt64 = 1<<63 - 1, -1 << 63
	cases := []struct {
		shard        int
		now          int64
		self, status int
		latency      int64
		method, path string
	}{
		{0, 0, 0, 0, 0, "", ""},
		{0, 17, 1, 200, 3, "GET", "/echo"},
		{3, 123456789012, 15, 503, 0, "-", "-"},
		{-1, -5, -2, -404, -77, "POST", "/a b/c d"},
		{1 << 30, maxInt64, 1 << 20, 999, minInt64, "GET", " /leading and trailing "},
		{7, minInt64, 0, 504, maxInt64, "DELETE", "/%20%s%d"},
	}
	for _, c := range cases {
		want := fmt.Sprintf("%d %d %d %d %d %s %s",
			c.shard, c.now, c.self, c.status, c.latency, c.method, c.path)
		prefix := []byte("kept:")
		got := appendAccessRecord(prefix, c.shard, c.now, c.self, c.status, c.latency, c.method, c.path)
		if string(got) != "kept:"+want {
			t.Errorf("record %q, want %q", got[len(prefix):], want)
		}
	}
}
