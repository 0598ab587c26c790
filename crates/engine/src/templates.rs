//! Template registry: compile a parameterized circuit once, then reference
//! it from any number of sweep jobs by id.
//!
//! Workers keep their own patchable [`CompiledTemplate`] clones (patching
//! mutates kernel payloads in place, so the shared master copy must stay
//! pristine). The registry hands out `Arc`s of the master; a worker clones
//! lazily on first use and keeps the clone for the engine's lifetime.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use svsim_core::{CompiledTemplate, ParamCircuit};
use svsim_types::SvResult;

/// Opaque handle to a registered template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u64);

impl std::fmt::Display for TemplateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tpl-{}", self.0)
    }
}

/// Immutable template metadata visible to schedulers and clients.
#[derive(Debug, Clone)]
pub struct TemplateInfo {
    /// Client-chosen name (diagnostics only; not unique).
    pub name: String,
    /// Register width.
    pub n_qubits: u32,
    /// Number of variational parameters a sweep job must supply.
    pub n_vars: usize,
}

#[derive(Debug)]
struct Entry {
    info: TemplateInfo,
    master: Arc<CompiledTemplate>,
}

/// Shared, append-only store of compiled templates.
#[derive(Debug, Default)]
pub struct TemplateRegistry {
    entries: Mutex<HashMap<TemplateId, Entry>>,
    next: std::sync::atomic::AtomicU64,
}

impl TemplateRegistry {
    /// Compile and register a template.
    ///
    /// # Errors
    /// Propagates compilation errors from the template structure.
    pub fn register(&self, name: &str, circuit: &ParamCircuit) -> SvResult<TemplateId> {
        let master = circuit.compile()?;
        let info = TemplateInfo {
            name: name.to_string(),
            n_qubits: master.n_qubits(),
            n_vars: master.n_vars(),
        };
        let id = TemplateId(self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        self.entries.lock().expect("template registry lock").insert(
            id,
            Entry {
                info,
                master: Arc::new(master),
            },
        );
        Ok(id)
    }

    /// Metadata for a registered template.
    #[must_use]
    pub fn info(&self, id: TemplateId) -> Option<TemplateInfo> {
        self.entries
            .lock()
            .expect("template registry lock")
            .get(&id)
            .map(|e| e.info.clone())
    }

    /// The shared master copy (clone it before patching).
    #[must_use]
    pub(crate) fn master(&self, id: TemplateId) -> Option<Arc<CompiledTemplate>> {
        self.entries
            .lock()
            .expect("template registry lock")
            .get(&id)
            .map(|e| Arc::clone(&e.master))
    }

    /// Number of registered templates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("template registry lock").len()
    }

    /// Whether no templates are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Worker-private cache of patchable template clones.
#[derive(Debug, Default)]
pub(crate) struct WorkerTemplates {
    clones: HashMap<TemplateId, CompiledTemplate>,
}

impl WorkerTemplates {
    /// The worker's patchable clone, created from the master on first use.
    pub(crate) fn get_mut(
        &mut self,
        id: TemplateId,
        registry: &TemplateRegistry,
    ) -> Option<&mut CompiledTemplate> {
        if let std::collections::hash_map::Entry::Vacant(e) = self.clones.entry(id) {
            let master = registry.master(id)?;
            e.insert((*master).clone());
        }
        self.clones.get_mut(&id)
    }
}
