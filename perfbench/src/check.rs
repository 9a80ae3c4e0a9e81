//! Output checks. A comparison that fails any of them is a failed
//! operation.

use crate::run::RunRecord;
use arch_adapt::AdaptationFramework;
use archmodel::style::{ClientServerStyle, CLIENT_T, SERVER_GROUP_T, SERVER_T};
use std::collections::HashMap;

/// End-of-run model↔runtime conformance, read through `model()` and
/// `app()`: every client is bound to the same server group in both, each
/// group's model replicas match the runtime replicas assigned to it, and
/// no server is both a model replica and a runtime spare.
pub fn conformance(framework: &AdaptationFramework) -> Result<(), String> {
    let model = framework.model();
    let app = framework.app();

    // Client → group bindings, collected per group so the walk stays linear
    // in the fleet size.
    let mut model_binding: HashMap<&str, &str> = HashMap::new();
    let mut model_replicas = 0usize;
    for (group_id, group) in model.components_of_type(SERVER_GROUP_T) {
        for client_id in ClientServerStyle::clients_of_group(model, group_id) {
            let client = model.component(client_id).map_err(|e| e.to_string())?;
            if model_binding.insert(&client.name, &group.name).is_some() {
                return Err(format!("model binds {} to two groups", client.name));
            }
        }
        let replicas = group
            .children
            .iter()
            .filter(|&&c| model.component(c).is_ok_and(|c| c.ctype == SERVER_T))
            .count();
        let (live, dead) = app.group_liveness(&group.name);
        if replicas != live + dead {
            return Err(format!(
                "{}: model has {replicas} replicas, runtime assigns {live} live + {dead} dead",
                group.name
            ));
        }
        model_replicas += replicas;
    }
    let clients = app.client_names();
    let model_clients = model.components_of_type(CLIENT_T).count();
    if model_clients != clients.len() {
        return Err(format!(
            "model has {model_clients} clients, runtime {}",
            clients.len()
        ));
    }
    for client in &clients {
        let runtime = app.client_group(client).map_err(|e| e.to_string())?;
        match model_binding.get(client.as_str()) {
            Some(&group) if group == runtime => {}
            Some(&group) => {
                return Err(format!(
                    "{client}: model binds it to {group}, runtime to {runtime}"
                ))
            }
            None => return Err(format!("{client}: unbound in the model")),
        }
    }
    let spares = app.spare_servers().len();
    let servers = app.server_names().len();
    if model_replicas + spares > servers {
        return Err(format!(
            "{model_replicas} model replicas + {spares} runtime spares exceed {servers} servers"
        ));
    }
    Ok(())
}

/// Sanity bounds on one run's outputs, plus its conformance result.
pub fn check_run(run: &RunRecord) -> Result<(), String> {
    let s = &run.summary;
    let label = run.label;
    if !(0.0..=1.0).contains(&s.fraction_latency_above_bound) {
        return Err(format!(
            "{label}: violation fraction {} outside [0, 1]",
            s.fraction_latency_above_bound
        ));
    }
    if run.requests_completed == 0 {
        return Err(format!("{label}: no request completed"));
    }
    if s.repairs_completed > s.repairs_started {
        return Err(format!(
            "{label}: {} repairs completed but only {} started",
            s.repairs_completed, s.repairs_started
        ));
    }
    if !run.adaptive && s.repairs_started > 0 {
        return Err(format!(
            "{label}: adaptation is off but {} repairs started",
            s.repairs_started
        ));
    }
    if s.mean_repair_duration_secs
        .is_some_and(|d| d.is_nan() || d <= 0.0)
    {
        return Err(format!(
            "{label}: mean repair duration {:?} is not positive",
            s.mean_repair_duration_secs
        ));
    }
    if run.unserved_s.is_nan() || run.unserved_s < 0.0 {
        return Err(format!("{label}: unserved demand {} s", run.unserved_s));
    }
    run.conformance
        .as_ref()
        .map_err(|e| format!("{label}: model/runtime conformance: {e}"))?;
    Ok(())
}

/// Two runs of the same inputs must agree on every deterministic output:
/// the summary, the completed and unserved demand, and the counters.
pub fn check_replay(first: &RunRecord, again: &RunRecord) -> Result<(), String> {
    let label = first.label;
    if first.summary != again.summary {
        return Err(format!("{label}: the summary differs between replays"));
    }
    if first.requests_completed != again.requests_completed
        || first.unserved_s.to_bits() != again.unserved_s.to_bits()
    {
        return Err(format!("{label}: the demand totals differ between replays"));
    }
    if first.counters != again.counters {
        return Err(format!(
            "{label}: the counters differ between replays: {:?} vs {:?}",
            first.counters, again.counters
        ));
    }
    Ok(())
}

/// A metered run's registry must hold exactly the component counters the
/// run's accessors report.
pub fn check_metered(run: &RunRecord) -> Result<(), String> {
    let Some(registry) = &run.registry else {
        return Err(format!("{}: the run was not metered", run.label));
    };
    for (name, value) in run.counters.named() {
        let published = registry.counter(archmodel::Key::new(name));
        if published != value {
            return Err(format!(
                "{}: registry reports {name} = {published}, the accessors {value}",
                run.label
            ));
        }
    }
    Ok(())
}
