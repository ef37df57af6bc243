//! Minimal keep-alive HTTP/1.1 client for the job server.
//!
//! Each request leaves in one `write_all` on a `TCP_NODELAY` socket: a
//! request written in several pieces waits on the Nagle / delayed-ACK
//! interaction for tens of milliseconds per request on loopback, which
//! would be charged to the server. A connection is retired after
//! [`MAX_REQUESTS_PER_CONN`] requests, the server's keep-alive cap,
//! or when the server answers `Connection: close`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Requests the server answers on one connection before closing it.
pub const MAX_REQUESTS_PER_CONN: usize = 64;

/// The complete bytes of one request, header and body in one buffer.
pub fn frame_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

struct Conn {
    reader: BufReader<TcpStream>,
    served: usize,
}

/// One keep-alive connection to `addr`, reopened as needed.
pub struct Client {
    addr: String,
    conn: Option<Conn>,
    /// Connections opened so far.
    pub opened: usize,
}

impl Client {
    /// A client for `addr` (`host:port`); connects lazily.
    pub fn new(addr: &str) -> Self {
        Client { addr: addr.to_owned(), conn: None, opened: 0 }
    }

    fn connect(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.conn = Some(Conn { reader: BufReader::new(stream), served: 0 });
            self.opened += 1;
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// Sends one request and returns `(status, body)`. A reused
    /// connection the server has meanwhile closed is retried once on a
    /// fresh connection.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
        let request = frame_request(method, path, body);
        let reused = self.conn.is_some();
        match self.exchange(&request) {
            Err(_) if reused => {
                self.conn = None;
                self.exchange(&request)
            }
            r => r,
        }
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let conn = self.connect()?;
        conn.reader.get_mut().write_all(request)?;
        let result = read_response(&mut conn.reader);
        conn.served += 1;
        let keep = matches!(result, Ok((_, _, true))) && conn.served < MAX_REQUESTS_PER_CONN;
        if !keep {
            self.conn = None;
        }
        result.map(|(status, body, _)| (status, body))
    }
}

/// Reads one `Content-Length` response: `(status, body, keep_alive)`.
fn read_response<R: BufRead>(r: &mut R) -> io::Result<(u16, Vec<u8>, bool)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let (mut len, mut keep) = (0usize, true);
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("truncated header"));
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0; len];
    r.read_exact(&mut body)?;
    Ok((status, body, keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn request_is_framed_in_one_buffer() {
        let req = frame_request("POST", "/jobs", "{\"bits\":8}");
        let text = String::from_utf8(req).expect("ascii");
        let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
        assert!(head.starts_with("POST /jobs HTTP/1.1\r\n"));
        assert!(head.contains("Content-Length: 10"));
        assert_eq!(body, "{\"bits\":8}");
    }

    /// A fake server that answers `n` requests per connection, the last
    /// with `Connection: close`, and records each request as received
    /// by a single `read`.
    fn fake_server(cap: usize, conns: usize) -> (String, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for _ in 0..conns {
                let (mut s, _) = listener.accept().expect("accept");
                for i in 0..cap {
                    let mut buf = [0u8; 4096];
                    let n = s.read(&mut buf).expect("read");
                    if n == 0 {
                        break;
                    }
                    seen.push(String::from_utf8_lossy(&buf[..n]).into_owned());
                    let close = if i + 1 == cap { "close" } else { "keep-alive" };
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\nConnection: {close}\r\nContent-Length: 2\r\n\r\nok"
                    );
                    s.write_all(resp.as_bytes()).expect("write");
                }
            }
            seen
        });
        (addr, handle)
    }

    #[test]
    fn each_request_arrives_whole_and_connections_roll_at_the_cap() {
        let (addr, server) = fake_server(MAX_REQUESTS_PER_CONN, 2);
        let mut c = Client::new(&addr);
        for i in 0..MAX_REQUESTS_PER_CONN + 3 {
            let body = format!("{{\"i\":{i}}}");
            let (status, resp) = c.call("POST", "/jobs", &body).expect("call");
            assert_eq!((status, resp.as_slice()), (200, b"ok".as_slice()));
        }
        assert_eq!(c.opened, 2);
        drop(c);
        let seen = server.join().expect("server thread");
        for (i, req) in seen.iter().enumerate().take(MAX_REQUESTS_PER_CONN + 3) {
            assert!(req.ends_with(&format!("{{\"i\":{i}}}")), "request {i} split: {req:?}");
        }
    }
}
