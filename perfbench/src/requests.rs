//! What a served request asks and must answer: the read mix drawn from a
//! store, the check of an answer against the store it was served from,
//! and the in-process server probe that replays a mix through the
//! server's own request functions.

use crate::trace::{now, Tracer};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::Arc;
use surveyor::kb::Property;
use surveyor::obs::MetricsRegistry;
use surveyor::SubjectiveKb;
use surveyor_server::{
    parse_head, route, RouteContext, ServedState, ServerMetrics, SharedState, StateCache,
};

/// What a served request asks and so what it must answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// `/decide/{entity}/{property}` for a decided pair.
    Decide { entity: String, property: Property },
    /// `/entity/{entity}?k=10`.
    Entity { entity: String, k: usize },
    /// `/decide/...` for a pair the store does not hold: must be 404.
    Unknown,
    /// `POST /ctl/reload?path=...` of the served snapshot.
    Reload,
}

/// One request of the served mix.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: &'static str,
    pub target: String,
    pub ask: Ask,
}

impl Request {
    /// The request head as a client sends it.
    pub fn head(&self) -> String {
        format!(
            "{} {} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\n\r\n",
            self.method, self.target
        )
    }
}

/// Deterministic 64-bit generator for request draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        surveyor::prob::rng::splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Decided pairs a mix draws its keys from.
const KEY_POOL: usize = 2_000;
/// Zipf exponent over the key pool: a few hot pairs, a long tail.
const ZIPF_EXPONENT: f64 = 1.0;
/// Share of reads that ask about a pair the store does not hold.
const UNKNOWN_SHARE: f64 = 0.05;
/// Share of reads that ask for an entity's top properties.
const ENTITY_SHARE: f64 = 0.10;
/// Properties per `/entity` answer.
const TOP_K: usize = 10;

/// The read mix: about 90% `/decide` and 10% `/entity?k=10`, keys drawn
/// Zipf-fashion from a seeded pool of decided pairs, and about 5% of the
/// reads for pairs the store does not hold.
pub fn read_mix(store: &SubjectiveKb, seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5e_12_7e);
    let pairs: Vec<(&str, &Property)> = store
        .blocks()
        .iter()
        .flat_map(|b| {
            b.opinions
                .iter()
                .map(move |o| (o.entity_name.as_str(), &b.property))
        })
        .collect();
    assert!(!pairs.is_empty(), "the served store holds no decided pairs");
    let pool: Vec<(&str, &Property)> = (0..KEY_POOL.min(pairs.len()))
        .map(|_| pairs[(rng.next_u64() % pairs.len() as u64) as usize])
        .collect();
    let mut cumulative = Vec::with_capacity(pool.len());
    let mut total = 0.0;
    for rank in 1..=pool.len() {
        total += 1.0 / (rank as f64).powf(ZIPF_EXPONENT);
        cumulative.push(total);
    }
    let enc = surveyor_server::percent_encode;
    (0..n)
        .map(|i| {
            let draw = rng.unit();
            let target = rng.unit() * total;
            let (entity, property) = pool[cumulative
                .partition_point(|&c| c < target)
                .min(pool.len() - 1)];
            if draw < UNKNOWN_SHARE {
                let entity = format!("Unmined Entity {i}");
                Request {
                    method: "GET",
                    target: format!("/decide/{}/{}", enc(&entity), enc(&property.to_string())),
                    ask: Ask::Unknown,
                }
            } else if draw < UNKNOWN_SHARE + ENTITY_SHARE {
                Request {
                    method: "GET",
                    target: format!("/entity/{}?k={TOP_K}", enc(entity)),
                    ask: Ask::Entity {
                        entity: entity.to_owned(),
                        k: TOP_K,
                    },
                }
            } else {
                Request {
                    method: "GET",
                    target: format!("/decide/{}/{}", enc(entity), enc(&property.to_string())),
                    ask: Ask::Decide {
                        entity: entity.to_owned(),
                        property: property.clone(),
                    },
                }
            }
        })
        .collect()
}

/// Checks served answers against the store they were served from.
/// Expected answers are computed by `SubjectiveKb::find_opinion` and
/// `opinions_of_entity`, once per distinct request.
pub struct AnswerCheck<'a> {
    store: &'a SubjectiveKb,
    memo: HashMap<String, Option<Vec<Value>>>,
}

/// The fields of one answered opinion, as the server renders them.
fn opinion_fields(block: &surveyor::CombinationBlock, opinion: &surveyor::StoredOpinion) -> Value {
    serde_json::json!({
        "entity": opinion.entity_name,
        "type": block.type_name,
        "property": block.property.to_string(),
        "positive": opinion.positive,
        "probability": opinion.probability,
        "positive_statements": opinion.positive_statements,
        "negative_statements": opinion.negative_statements,
    })
}

fn matches(expected: &Value, got: &Value) -> bool {
    let Value::Object(fields) = expected else {
        return false;
    };
    fields.iter().all(|(k, v)| got.get(k) == Some(v))
}

impl<'a> AnswerCheck<'a> {
    pub fn new(store: &'a SubjectiveKb) -> Self {
        Self {
            store,
            memo: HashMap::new(),
        }
    }

    /// Whether `status` and `body` are the right answer to `request`.
    /// Reloads must succeed and report the served store's size.
    pub fn is_correct(&mut self, request: &Request, status: u16, body: &[u8]) -> bool {
        let parsed: Option<Value> = std::str::from_utf8(body)
            .ok()
            .and_then(|text| serde_json::from_str(text).ok());
        let store = self.store;
        let expected =
            self.memo
                .entry(request.target.clone())
                .or_insert_with(|| match &request.ask {
                    Ask::Decide { entity, property } => store
                        .find_opinion(entity, property)
                        .map(|(b, o)| vec![opinion_fields(b, o)]),
                    Ask::Entity { entity, k } => {
                        let hits = store.opinions_of_entity(entity);
                        (!hits.is_empty()).then(|| {
                            hits.iter()
                                .take(*k)
                                .map(|(b, o)| opinion_fields(b, o))
                                .collect()
                        })
                    }
                    Ask::Unknown => None,
                    Ask::Reload => Some(Vec::new()),
                });
        match (&request.ask, expected, parsed) {
            (Ask::Decide { .. }, Some(want), Some(got)) => status == 200 && matches(&want[0], &got),
            (Ask::Entity { .. }, Some(want), Some(got)) => {
                let Some(Value::Array(props)) = got.get("properties") else {
                    return false;
                };
                status == 200
                    && props.len() == want.len()
                    && want.iter().zip(props).all(|(w, g)| matches(w, g))
            }
            (Ask::Unknown, None, _) => status == 404,
            (Ask::Reload, _, Some(got)) => {
                status == 200
                    && got.get("reloaded") == Some(&Value::Bool(true))
                    && got.get("associations").and_then(Value::as_f64) == Some(store.len() as f64)
            }
            _ => false,
        }
    }
}

/// A read mix served in process.
#[derive(Debug, Default)]
pub struct InProcess {
    /// Busy seconds in `parse_head`, `route` and `Response::render`.
    pub parse_s: f64,
    pub route_s: f64,
    pub render_s: f64,
    /// Each request's parse + route + render time, in milliseconds.
    pub request_ms: Vec<f64>,
    /// Requests answered wrongly.
    pub wrong: u64,
}

impl InProcess {
    /// Adds another chunk's results to these.
    pub fn absorb(&mut self, other: InProcess) {
        self.parse_s += other.parse_s;
        self.route_s += other.route_s;
        self.render_s += other.render_s;
        self.request_ms.extend(other.request_ms);
        self.wrong += other.wrong;
    }
}

/// Serves a request mix in process: the same `parse_head`, `route` and
/// `Response::render` calls a server worker makes per request, without
/// the network, each timed and every answer checked.
pub fn route_in_process(
    state: Arc<ServedState>,
    requests: &[Request],
    tracer: Option<&Tracer>,
) -> InProcess {
    let shared = SharedState::new(state.clone());
    let mut cache = StateCache::new(&shared);
    let metrics = ServerMetrics::new(Arc::new(MetricsRegistry::new()));
    let mut check = AnswerCheck::new(&state.store);
    let mut result = InProcess {
        parse_s: 0.0,
        route_s: 0.0,
        render_s: 0.0,
        request_ms: Vec::with_capacity(requests.len()),
        wrong: 0,
    };
    let probe = tracer.map(|t| t.root("serve.in_process"));
    let mut spans = Vec::new();
    for request in requests.iter().filter(|r| r.ask != Ask::Reload) {
        let head = request.head();
        let t0 = now();
        let parsed = parse_head(head.as_bytes());
        let t1 = now();
        let Ok(parsed) = parsed else {
            result.wrong += 1;
            continue;
        };
        let mut ctx = RouteContext {
            shared: &shared,
            cache: &mut cache,
            metrics: &metrics,
            debug_routes: false,
        };
        let outcome = route(&parsed, &mut ctx);
        let t2 = now();
        let wire = outcome.response.render();
        let t3 = now();
        std::hint::black_box(&wire);
        result.parse_s += (t1 - t0).as_secs_f64();
        result.route_s += (t2 - t1).as_secs_f64();
        result.render_s += (t3 - t2).as_secs_f64();
        result.request_ms.push((t3 - t0).as_secs_f64() * 1e3);
        if let (Some(t), Some(probe)) = (tracer, probe.as_ref()) {
            for (name, (a, b)) in [
                ("server.parse", (t0, t1)),
                ("server.route", (t1, t2)),
                ("server.render", (t2, t3)),
            ] {
                spans.push(t.finished(probe, name, t.at_ns(a), t.at_ns(b)));
            }
        }
        if !check.is_correct(request, outcome.response.status, &outcome.response.body) {
            result.wrong += 1;
        }
    }
    if let (Some(t), Some(probe)) = (tracer, probe) {
        t.keep(spans);
        t.close(probe);
    }
    result
}
