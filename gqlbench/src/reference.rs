//! The in-process reference: `gea-server`'s engine on a session opened
//! from the same corpus directory, with no wire, cache, optimizer or
//! lock in between.

use std::path::Path;

use gea_core::session::{ExecConfig, GeaSession};
use gea_sage::clean::CleaningConfig;
use gea_server::engine;
use gea_server::gql::{self, Request};
use gea_server::wire::Reply;

use crate::dialogue::{framed, Transport};
use crate::workload::EXEC_THREADS;

/// The reference engine.
pub struct Reference {
    session: GeaSession,
}

impl Reference {
    /// Open the corpus directory as `open <name> dir` would.
    pub fn open(dir: &Path) -> Result<Reference, String> {
        let corpus = gea_sage::io::read_corpus_dir(dir).map_err(|e| e.to_string())?;
        let mut session =
            GeaSession::open(corpus, &CleaningConfig::default()).map_err(|e| e.to_string())?;
        session.set_exec_config(ExecConfig::with_threads(EXEC_THREADS));
        Ok(Reference { session })
    }
}

impl Transport for Reference {
    fn send(&mut self, line: &str) -> Result<Reply, String> {
        let cmd = match gql::parse(line) {
            Ok(Some(Request::Gql(cmd))) => cmd,
            other => return Err(format!("reference replays GQL commands only: {other:?}")),
        };
        let result = if cmd.is_read() {
            engine::execute_read(&self.session, &cmd)
        } else {
            engine::execute_write(&mut self.session, &cmd)
        };
        Ok(framed(result.map_err(|e| (e.code.to_string(), e.message))))
    }
}
