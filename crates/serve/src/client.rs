//! A minimal HTTP/1.1 client for the job server's wire protocol:
//! [`http_call`] for one-shot `Connection: close` exchanges and
//! [`HttpClient`] for a kept-alive connection. `rlmul trace` and the
//! integration tests talk to a live daemon through it, so every
//! exchange exercises the real request parsing, routing and response
//! rendering.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One raw HTTP/1.1 exchange (`Connection: close` protocol, matching
/// the server).
///
/// # Errors
///
/// Transport failures, or a response without a parsable status line.
pub fn http_call(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = connect(addr)?;
    stream.write_all(request(method, path, "", body).as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let code: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
    let payload = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    Ok((code, payload))
}

/// A persistent HTTP/1.1 client: sends `Connection: keep-alive` and
/// reuses one TCP connection across sequential requests, reconnecting
/// transparently when the server closes it (the server bounds reuse
/// at 64 requests per connection). Responses are framed by
/// `Content-Length`, so the client never has to read to EOF.
pub struct HttpClient {
    addr: String,
    stream: Option<TcpStream>,
    /// TCP connections opened over the client's lifetime.
    pub conns_opened: usize,
}

impl HttpClient {
    /// A client for the daemon at `addr`; connects lazily.
    pub fn new(addr: &str) -> Self {
        HttpClient { addr: addr.to_string(), stream: None, conns_opened: 0 }
    }

    /// One request/response exchange, reusing the open connection
    /// when possible. A send failure on a reused connection (the
    /// server closed it between requests) retries once on a fresh
    /// one.
    ///
    /// # Errors
    ///
    /// Transport failures, or a response without a parsable status
    /// line.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        if self.stream.is_some() {
            match self.exchange(method, path, body) {
                Ok(answer) => return Ok(answer),
                Err(_) => self.stream = None, // stale connection; retry fresh
            }
        }
        self.stream = Some(connect(&self.addr)?);
        self.conns_opened += 1;
        self.exchange(method, path, body).inspect_err(|_| self.stream = None)
    }

    /// Writes one request and reads one `Content-Length`-framed
    /// response on the currently open connection.
    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no connection"))?;
        stream.write_all(request(method, path, "Connection: keep-alive\r\n", body).as_bytes())?;
        let (head, payload) = read_framed_response(stream)?;
        let code: u16 = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.split(' ').next())
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
        if !header_value(&head, "connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
        {
            self.stream = None; // server asked to close; honor it
        }
        Ok((code, payload))
    }
}

/// Opens a client connection with `TCP_NODELAY` set and 10 s I/O
/// timeouts.
fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

/// Frames one request into a single buffer, so it leaves in one
/// write: a request split over several small writes stalls on
/// Nagle's algorithm against the peer's delayed ACK.
fn request(method: &str, path: &str, headers: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: rlmul\r\n{headers}\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Reads one response head plus its `Content-Length` body, leaving the
/// connection positioned at the next response.
fn read_framed_response(stream: &mut TcpStream) -> io::Result<(String, String)> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        if buf.len() > 64 * 1024 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "response head too large"));
        }
        stream.read_exact(&mut byte)?;
        buf.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&buf).into_owned();
    let len: usize = header_value(&head, "content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no content-length"))?;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok((head, String::from_utf8_lossy(&body).into_owned()))
}

/// The value of the first `name:` header in `head` (case-insensitive
/// name), trimmed.
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}
