package serve

// The HTTP/1.1 request/response model: a deliberately small subset
// implemented directly over net.Conn (the connection state machine lives
// in conn.go).  net/http is deliberately not used — its server spawns
// goroutines per connection, which would route traffic around the MP
// scheduler.  Persistent connections follow the standard rules: HTTP/1.1
// requests keep the connection alive unless the client sends
// `Connection: close`; HTTP/1.0 requests close it unless the client
// sends `Connection: keep-alive`; responses always declare
// Content-Length and answer with an explicit Connection header.

import (
	"strconv"
	"strings"
	"unicode"

	"repro/internal/threads"
)

const (
	maxHeaderBytes = 8 << 10
	maxBodyBytes   = 1 << 20
)

// hdrKV is one parsed header field.
type hdrKV struct {
	k, v string
}

// Request is one parsed HTTP request, plus the deadline bookkeeping
// handlers use to cancel themselves at safe points.
type Request struct {
	Method   string
	Path     string
	RawQuery string
	Proto    string
	Body     []byte
	Close    bool  // client asked for Connection: close (or HTTP/1.0 default)
	Arrival  int64 // clock tick at which the request started arriving
	Deadline int64 // clock tick after which the request is cancelled

	hdrs []hdrKV
	srv  *Server
}

// Header returns the first value of the named header, matched
// case-insensitively, or "".
func (r *Request) Header(name string) string {
	for i := range r.hdrs {
		if strings.EqualFold(r.hdrs[i].k, name) {
			return r.hdrs[i].v
		}
	}
	return ""
}

// Expired reports whether the request's deadline has passed; handlers
// call it at safe points and return early (the caller answers 504).
func (r *Request) Expired() bool { return r.srv.clock.Now() >= r.Deadline }

// Remaining returns the ticks left before the deadline (possibly
// negative).
func (r *Request) Remaining() int64 { return r.Deadline - r.srv.clock.Now() }

// Park suspends the handling thread for the given number of clock
// ticks; a cooperative sleep on the CML clock.
func (r *Request) Park(ticks int64) { r.srv.park(ticks) }

// CheckPreempt is a scheduling safe point: long-running handlers call it
// periodically so preemption and processor revocation stay honored.
func (r *Request) CheckPreempt() { r.srv.sys.CheckPreempt() }

// System returns the thread system, letting handlers fork parallel MP
// work (the /work kernels do).
func (r *Request) System() *threads.System { return r.srv.sys }

// Query returns the first value of the named query parameter, or "".
func (r *Request) Query(key string) string {
	q := r.RawQuery
	for len(q) > 0 {
		pair := q
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			q = ""
		}
		k, v := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			k, v = pair[:i], pair[i+1:]
		}
		if k == key {
			return v
		}
	}
	return ""
}

// QueryInt returns the named query parameter as an int, or def when
// absent or malformed.
func (r *Request) QueryInt(key string, def int) int {
	if s := r.Query(key); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return n
		}
	}
	return def
}

// Response is a handler's reply.
type Response struct {
	Status      int
	ContentType string // default "text/plain; charset=utf-8"
	Body        []byte
	RetryAfter  int // seconds; emitted as Retry-After when nonzero

	// Stream, when non-nil, switches the reply to chunked streaming
	// delivery (stream.go): the header goes out with Transfer-Encoding:
	// chunked and Connection: close, then frames pulled from the
	// Streamer flow as chunks until it closes.  Body is ignored and the
	// connection always closes when the stream ends.  Any owner that
	// drops a stream response unwritten must Cancel it.
	Stream Streamer
}

// Handler serves one request.  Handlers run on MP threads; they may
// fork, park, and synchronize freely, and should poll req.Expired() at
// safe points during long computations.
type Handler func(req *Request) Response

type route struct {
	pattern string // exact path, or a prefix when it ends in "/"
	h       Handler
}

// Handle registers a handler.  A pattern ending in "/" matches by
// prefix; otherwise it matches exactly.  The longest pattern wins.
// Register before Serve; the route table is read without locks on the
// request path.
func (srv *Server) Handle(pattern string, h Handler) {
	srv.routes = append(srv.routes, route{pattern: pattern, h: h})
}

func (srv *Server) route(path string) Handler {
	var best Handler
	bestLen := -1
	for i := range srv.routes {
		rt := &srv.routes[i]
		ok := rt.pattern == path ||
			(strings.HasSuffix(rt.pattern, "/") && strings.HasPrefix(path, rt.pattern))
		if ok && len(rt.pattern) > bestLen {
			best, bestLen = rt.h, len(rt.pattern)
		}
	}
	return best
}

// parseHeader parses the request line and headers; header is the block
// up to, not including, the blank line.  It resolves Content-Length and
// the keep-alive decision (Close) from the Connection header and
// protocol version.  The block is converted to a string once and every
// field is a substring of it, found by index: per request the parser
// allocates that string, the Request and its header slice.
func parseHeader(header []byte) (*Request, int, error) {
	line, rest, more := strings.Cut(string(header), "\r\n")
	// Method, target and protocol, separated by exactly two spaces.
	sp1, sp2 := strings.IndexByte(line, ' '), strings.LastIndexByte(line, ' ')
	if strings.Count(line, " ") != 2 || !strings.HasPrefix(line[sp2+1:], "HTTP/1.") {
		return nil, 0, ErrBadRequest
	}
	req := &Request{Method: line[:sp1], Proto: line[sp2+1:]}
	target := line[sp1+1 : sp2]
	if i := strings.IndexByte(target, '?'); i >= 0 {
		req.Path, req.RawQuery = target[:i], target[i+1:]
	} else {
		req.Path = target
	}
	if req.Path == "" || req.Path[0] != '/' {
		return nil, 0, ErrBadRequest
	}
	if more {
		req.hdrs = make([]hdrKV, 0, strings.Count(rest, "\r\n")+1)
	}
	contentLength := 0
	for more {
		line, rest, more = strings.Cut(rest, "\r\n")
		i := strings.IndexByte(line, ':')
		if i < 0 {
			continue
		}
		k := strings.TrimSpace(line[:i])
		v := strings.TrimSpace(line[i+1:])
		req.hdrs = append(req.hdrs, hdrKV{k: k, v: v})
		if strings.EqualFold(k, "Content-Length") {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, 0, ErrBadRequest
			}
			contentLength = n
		}
	}
	// Keep-alive decision: HTTP/1.1 persists unless the client opts out;
	// HTTP/1.0 closes unless the client opts in.
	req.Close = req.Proto == "HTTP/1.0"
	tokens := req.Header("Connection")
	for more = true; more; {
		var tok string
		tok, tokens, more = strings.Cut(tokens, ",")
		switch tok = strings.TrimSpace(tok); {
		case lowerIs(tok, "close"):
			req.Close = true
		case lowerIs(tok, "keep-alive"):
			req.Close = false
		}
	}
	return req, contentLength, nil
}

// lowerIs reports whether strings.ToLower(s) == want, for an ASCII want,
// without building the lowered string.
func lowerIs(s, want string) bool {
	i := 0
	for _, r := range s {
		if i == len(want) || unicode.ToLower(r) != rune(want[i]) {
			return false
		}
		i++
	}
	return i == len(want)
}

// statusText covers the statuses serve emits.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 409:
		return "Conflict"
	case 413:
		return "Content Too Large"
	case 429:
		return "Too Many Requests"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	case 504:
		return "Gateway Timeout"
	default:
		return "Status"
	}
}
