//! A minimal blocking HTTP/1.1 client for the service's own wire
//! format: keep-alive, JSON bodies, chunked-response decoding. Shared
//! by the integration tests, the load generator, and the example — so
//! every consumer exercises the same wire path a real client would.

use crate::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded response: status plus the full (de-chunked) body.
#[derive(Clone, Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The body bytes (chunk framing already removed).
    pub body: Vec<u8>,
    /// Whether the body arrived `Transfer-Encoding: chunked` (the
    /// streaming ask path) rather than `Content-Length`.
    pub chunked: bool,
}

impl Response {
    /// The body as one JSON value.
    pub fn json(&self) -> io::Result<Json> {
        Json::parse(&String::from_utf8_lossy(&self.body))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// The body as newline-delimited JSON (the ask stream's shape).
    pub fn json_lines(&self) -> io::Result<Vec<Json>> {
        String::from_utf8_lossy(&self.body)
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                Json::parse(l)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
            })
            .collect()
    }
}

/// One keep-alive connection to the server.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects (with a bounded connect + read timeout so a hung server
    /// fails tests instead of wedging them).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request and reads the complete response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> io::Result<Response> {
        let payload = body.map(|b| b.to_string()).unwrap_or_default();
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: provabs\r\n");
        if !payload.is_empty() {
            head.push_str("content-type: application/json\r\n");
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", payload.len()));
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(payload.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Sends arbitrary body bytes (declared as JSON) — for driving the
    /// server's malformed/oversized rejection paths in tests.
    pub fn request_raw_body(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: provabs\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Declares an oversized `Content-Length` without sending the body:
    /// the server must reject on the declaration alone (`413`), so the
    /// client never has to push megabytes into a closing socket.
    pub fn request_oversized(
        &mut self,
        method: &str,
        path: &str,
        declared: usize,
    ) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: provabs\r\ncontent-length: {declared}\r\n\r\n"
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &Json) -> io::Result<Response> {
        self.request("POST", path, Some(body))
    }

    /// `DELETE path`.
    pub fn delete(&mut self, path: &str) -> io::Result<Response> {
        self.request("DELETE", path, None)
    }

    /// Closes the write half so the server sees EOF (used by the
    /// disconnect-cancellation test); the client is unusable afterwards.
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line: {status_line:?}"),
                )
            })?;
        let mut content_length: Option<usize> = None;
        let mut chunked = false;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = value.parse().ok();
            } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
        }
        let body = if chunked {
            let mut body = Vec::new();
            loop {
                let size_line = self.read_line()?;
                let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad chunk size: {size_line:?}"),
                    )
                })?;
                if size == 0 {
                    // Trailer section: read through the blank terminator.
                    loop {
                        if self.read_line()?.is_empty() {
                            break;
                        }
                    }
                    break;
                }
                let mut chunk = vec![0u8; size];
                self.reader.read_exact(&mut chunk)?;
                body.extend_from_slice(&chunk);
                // The CRLF that closes the chunk.
                let mut crlf = [0u8; 2];
                self.reader.read_exact(&mut crlf)?;
            }
            // Callers keep responses (the benchmark driver, every one of
            // a block): not in up to twice their size, which is where
            // growing by doubling leaves a body whose last chunk is small.
            body.shrink_to_fit();
            body
        } else {
            let len = content_length.unwrap_or(0);
            let mut body = vec![0u8; len];
            self.reader.read_exact(&mut body)?;
            body
        };
        Ok(Response {
            status,
            body,
            chunked,
        })
    }
}
