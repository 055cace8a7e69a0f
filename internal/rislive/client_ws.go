package rislive

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/resilience"
)

// Transport values for Client.Transport.
const (
	// TransportAuto picks by URL scheme: ws/wss connect over
	// WebSocket, everything else over SSE.
	TransportAuto = ""
	TransportSSE  = "sse"
	TransportWS   = "ws"
)

// streamConn is one attempt of the client's reconnect policy: it
// establishes one connection over the resolved transport and consumes
// it until error. Everything above the framing — the JSON envelope,
// gap tracking, staleness, reconnect policy — is transport-agnostic
// and shared through dispatch. A connection that delivered messages
// ends in resilience.Progress, which restarts the retry budget; a
// configuration error is permanent.
func (c *Client) streamConn(ctx context.Context) error {
	u, ws, err := c.endpoint()
	if err != nil {
		return resilience.MarkPermanent(err)
	}
	var delivered int
	if ws {
		delivered, err = c.streamOnceWS(ctx, u)
	} else {
		delivered, err = c.streamOnce(ctx, u)
	}
	if ctx.Err() != nil {
		return err // closed
	}
	c.logf("rislive: stream ended after %d messages: %v", delivered, err)
	// Anything published while we reconnect is lost; open a loss
	// window at the delivered watermark (closed by the first elem of
	// the next connection).
	c.openGap("reconnect")
	if delivered > 0 {
		return resilience.Progress(err)
	}
	return err
}

// streamOnceWS dials the endpoint, performs the RFC 6455 client
// handshake, and consumes text frames until error, returning how many
// data messages it delivered. Each text frame carries one Message —
// the same JSON the SSE path carries per event — so dispatch is
// shared verbatim. Cancelling ctx (Close) closes the connection.
func (c *Client) streamOnceWS(ctx context.Context, u *url.URL) (delivered int, err error) {
	done := ctx.Done()
	secure := u.Scheme == "wss" || u.Scheme == "https"
	hostport := u.Host
	if u.Port() == "" {
		if secure {
			hostport = net.JoinHostPort(u.Hostname(), "443")
		} else {
			hostport = net.JoinHostPort(u.Hostname(), "80")
		}
	}
	timeout := orDefault(c.ConnectTimeout, 10*time.Second)
	d := net.Dialer{Timeout: timeout}
	rawConn, err := d.DialContext(ctx, "tcp", hostport)
	if err != nil {
		return 0, err
	}
	conn := rawConn
	defer func() { conn.Close() }()
	// Closing the client closes the connection, unblocking whatever
	// read or write is in progress.
	defer context.AfterFunc(ctx, func() { rawConn.Close() })()
	if secure {
		tc := tls.Client(rawConn, &tls.Config{ServerName: u.Hostname()})
		tc.SetDeadline(time.Now().Add(timeout))
		if err := tc.Handshake(); err != nil {
			return 0, err
		}
		tc.SetDeadline(time.Time{})
		conn = tc
	}
	key, err := wsChallengeKey()
	if err != nil {
		return 0, err
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := io.WriteString(conn, "GET "+u.RequestURI()+" HTTP/1.1\r\nHost: "+u.Host+"\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: "+key+"\r\nSec-WebSocket-Version: 13\r\n\r\n"); err != nil {
		return 0, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return 0, fmt.Errorf("rislive: HTTP %s (want 101 Switching Protocols): %w", resp.Status, rejected(resp, u.String()))
	}
	if got, want := resp.Header.Get("Sec-WebSocket-Accept"), wsAcceptKey(key); got != want {
		return 0, fmt.Errorf("rislive: handshake Sec-WebSocket-Accept %q, want %q", got, want)
	}
	conn.SetDeadline(time.Time{})

	readTimeout := c.connected(" (websocket)")
	rd := wsReader{r: br}
	for {
		// The deadline bounds silence between frames, the WS analogue
		// of the SSE read timer; any server frame — data, watermark
		// ping, or a bare protocol ping — resets it. It applies to
		// reads only, so consumer backpressure inside dispatch is not
		// mistaken for upstream silence.
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		op, payload, err := rd.next()
		if err != nil {
			if errors.Is(err, errWSClosed) {
				return delivered, io.EOF
			}
			return delivered, err
		}
		switch op {
		case wsOpPing:
			pong, perr := wsMaskedFrame(wsOpPong, payload)
			if perr != nil {
				return delivered, perr
			}
			conn.SetWriteDeadline(time.Now().Add(readTimeout))
			if _, werr := conn.Write(pong); werr != nil {
				return delivered, werr
			}
			conn.SetWriteDeadline(time.Time{})
		case wsOpPong:
			// Unsolicited pong: permitted by the RFC, nothing to do.
		case wsOpText, wsOpBinary:
			n, derr := c.dispatch(payload, done)
			delivered += n
			if derr != nil {
				return delivered, derr
			}
		}
	}
}
