//! Serving-process lifecycle: spawn the release `pc serve` replicas (and
//! `pc route` in front of them), wait until each answers a `ping`, read
//! their peak resident memory, then stop and reap them.
//!
//! Every child runs with `--watch-stdin` and a piped stdin, so a benchmark
//! that panics or is killed closes the pipe and the child drains and exits
//! on its own: no serving process outlives the benchmark. A finished run
//! kills its children outright: their files are throwaway copies, and a
//! graceful drain would only spend seconds persisting them (~5 s at 100k
//! chips).

use pc_service::protocol::{Request, Response};
use pc_service::{ConnectOptions, ServiceClient};
use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// How long a child may take to print its listening address.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// One serving child process.
pub struct Proc {
    pub addr: String,
    child: Child,
    stdin: Option<ChildStdin>,
    drain: Option<thread::JoinHandle<()>>,
}

impl Proc {
    fn spawn(pc: &Path, role: &'static str, args: &[String], log: &Path) -> Result<Proc, String> {
        let mut child = Command::new(pc)
            .args(args)
            .arg("--watch-stdin")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pc.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("child stdout was not piped")?;
        // The drain thread hands over the listening address, then keeps
        // reading so the child never blocks on (or dies of) a full pipe.
        let (tx, rx) = mpsc::channel();
        let drain = thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some((_, addr)) = line.split_once(" listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut proc = Proc {
            addr: String::new(),
            child,
            stdin,
            drain: Some(drain),
        };
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => {
                proc.kill();
                Err(format!(
                    "{role} never printed its address; see {}",
                    log.display()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in kB, from `/proc/<pid>/status`.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Immediate stop and reap.
    fn kill(&mut self) {
        self.stdin.take();
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_drain();
    }

    fn join_drain(&mut self) {
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.kill();
        }
    }
}

/// The serving tier of one workload: replicas, then the router if any.
pub struct Tier {
    pub replicas: Vec<Proc>,
    pub router: Option<Proc>,
    /// Seconds from the first spawn until every process answered a ping.
    pub setup_s: f64,
    dir: PathBuf,
}

impl Tier {
    /// Starts `replicas` replicas, each over its own copy of the persisted
    /// db/index pair, plus a `pc route` over them when `routed`.
    pub fn start(
        pc: &Path,
        db: &Path,
        index: &Path,
        replicas: usize,
        routed: bool,
        dir: &Path,
    ) -> Result<Tier, String> {
        let _ = fs::remove_dir_all(dir);
        let mut dirs = Vec::new();
        for r in 0..replicas {
            let d = dir.join(format!("replica-{r}"));
            fs::create_dir_all(&d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
            // Servers replace their files by rename when they save, so a
            // hard link never lets a replica write through to the cache.
            link_or_copy(db, &d.join("db.txt"))?;
            link_or_copy(index, &d.join("index.txt"))?;
            dirs.push(d);
        }

        let started = crate::report::now();
        // Spawn every replica before waiting on any, so they load in
        // parallel as they would on a real restart.
        let pending: Vec<_> = dirs
            .iter()
            .enumerate()
            .map(|(r, d)| {
                let args = vec![
                    "serve".to_string(),
                    "--addr".into(),
                    "127.0.0.1:0".into(),
                    "--db".into(),
                    d.join("db.txt").display().to_string(),
                    "--index".into(),
                    d.join("index.txt").display().to_string(),
                    "--replica-id".into(),
                    format!("replica-{r}"),
                ];
                let pc = pc.to_path_buf();
                let log = d.join("serve.log");
                thread::spawn(move || Proc::spawn(&pc, "replica", &args, &log))
            })
            .collect();
        let mut procs = Vec::new();
        let mut failure = None;
        for handle in pending {
            match handle.join() {
                Ok(Ok(p)) => procs.push(p),
                Ok(Err(e)) => failure = Some(e),
                Err(_) => failure = Some("replica spawn thread panicked".to_string()),
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        for p in &procs {
            ping(&p.addr)?;
        }
        let router = if routed {
            let mut args = vec!["route".to_string(), "--addr".into(), "127.0.0.1:0".into()];
            for p in &procs {
                args.push("--replica".into());
                args.push(p.addr.clone());
            }
            let p = Proc::spawn(pc, "router", &args, &dir.join("route.log"))?;
            ping(&p.addr)?;
            Some(p)
        } else {
            None
        };
        Ok(Tier {
            replicas: procs,
            router,
            setup_s: started.elapsed().as_secs_f64(),
            dir: dir.to_path_buf(),
        })
    }

    /// The address clients send load to.
    pub fn front(&self) -> &str {
        match &self.router {
            Some(r) => &r.addr,
            None => &self.replicas[0].addr,
        }
    }

    /// Every serving process, router last.
    pub fn procs(&self) -> impl Iterator<Item = &Proc> {
        self.replicas.iter().chain(self.router.iter())
    }

    /// Stops every process (router first), reaps it, and removes the
    /// tier's files.
    pub fn kill(mut self) {
        self.cleanup();
    }

    fn cleanup(&mut self) {
        // Dropping a `Proc` kills and reaps it.
        self.router = None;
        self.replicas.clear();
        let _ = fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Tier {
    fn drop(&mut self) {
        self.cleanup();
    }
}

fn link_or_copy(from: &Path, to: &Path) -> Result<(), String> {
    if fs::hard_link(from, to).is_ok() {
        return Ok(());
    }
    fs::copy(from, to)
        .map(|_| ())
        .map_err(|e| format!("cannot copy {} to {}: {e}", from.display(), to.display()))
}

/// Connects with generous socket timeouts, so a wedged server fails the
/// run instead of hanging it.
pub fn connect(addr: &str) -> Result<ServiceClient, String> {
    ServiceClient::connect_with(addr, ConnectOptions::uniform(Duration::from_secs(30)))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))
}

fn ping(addr: &str) -> Result<(), String> {
    match connect(addr)?.call(&Request::Ping) {
        Ok(Response::Pong) => Ok(()),
        Ok(other) => Err(format!("{addr} answered ping with {other:?}")),
        Err(e) => Err(format!("{addr} failed ping: {e}")),
    }
}
