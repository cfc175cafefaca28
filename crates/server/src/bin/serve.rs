//! Runs the what-if service until killed.
//!
//! ```text
//! cargo run --release -p provabs-server --bin serve -- \
//!     --addr 127.0.0.1:7878 --deadline-ms 30000
//! ```

use provabs_server::{ServerConfig, ServerHandle};
use std::time::Duration;

fn main() {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("an address"),
            "--max-connections" => {
                config.max_connections = parse(&value("a count"), "--max-connections")
            }
            "--max-body" => config.max_body = parse(&value("bytes"), "--max-body"),
            "--deadline-ms" => {
                config.default_deadline_ms = Some(parse(&value("milliseconds"), "--deadline-ms"))
            }
            "--artifact-dir" => config.artifact_dir = value("a directory").into(),
            "--help" | "-h" => {
                println!(
                    "serve [--addr HOST:PORT] [--max-connections N] \
                     [--max-body BYTES] [--deadline-ms MS] [--artifact-dir DIR]"
                );
                return;
            }
            other => die(&format!("unknown flag {other:?} (try --help)")),
        }
    }

    let server = match ServerHandle::start(config) {
        Ok(server) => server,
        Err(e) => die(&format!("failed to start: {e}")),
    };
    println!("provabs-server listening on http://{}", server.addr());
    println!("  try: curl http://{}/healthz", server.addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| die(&format!("{flag} could not parse {text:?}")))
}

fn die(message: &str) -> ! {
    eprintln!("serve: {message}");
    std::process::exit(2)
}
