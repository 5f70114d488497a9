//! Model-theoretic evaluation of first-order formulas.
//!
//! The paper evaluates closed queries in the standard model-theoretic sense (`r ⊨ Q`).
//! [`Evaluator`] implements that semantics with **active-domain quantification**: the
//! quantifiers range over every constant occurring in the visible relations or in the
//! formula itself. For the constraint and query classes of the paper this coincides with
//! the usual domain-independent reading.
//!
//! An evaluator can expose a relation either fully or *restricted to a subset of its
//! tuples*. Restriction is how repairs are evaluated without materialising a new
//! instance per repair: the active domain is still drawn from the full instance, so all
//! repairs of one instance are evaluated over the same domain.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use pdqi_relation::{ColumnarView, DatabaseInstance, RelationInstance, TupleSet, Value};

use crate::ast::{Atom, Comparison, Formula, Term};
use crate::parser::ParseError;
use crate::vector::{self, SlotData, VectorPlan};

/// Errors raised during query analysis or evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A closed evaluation was requested for a formula with free variables.
    FreeVariables {
        /// The free variables found.
        variables: Vec<String>,
    },
    /// The formula mentions a relation the evaluator does not know.
    UnknownRelation {
        /// The relation name.
        relation: String,
    },
    /// An atom's argument count does not match the relation's arity.
    ArityMismatch {
        /// The relation name.
        relation: String,
        /// Arity of the relation.
        expected: usize,
        /// Number of arguments in the atom.
        actual: usize,
    },
    /// A variable was used without being bound by a quantifier or an answer assignment.
    UnboundVariable {
        /// The variable name.
        variable: String,
    },
    /// A comparison was applied to values it cannot compare (e.g. `<` on names).
    TypeError(pdqi_relation::RelationError),
    /// A textual query could not be parsed.
    Parse(ParseError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::FreeVariables { variables } => {
                write!(f, "formula is not closed; free variables: {}", variables.join(", "))
            }
            QueryError::UnknownRelation { relation } => {
                write!(f, "query mentions unknown relation `{relation}`")
            }
            QueryError::ArityMismatch { relation, expected, actual } => write!(
                f,
                "atom over `{relation}` has {actual} arguments but the relation has arity {expected}"
            ),
            QueryError::UnboundVariable { variable } => {
                write!(f, "variable `{variable}` is not bound")
            }
            QueryError::TypeError(e) => write!(f, "type error: {e}"),
            QueryError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<pdqi_relation::RelationError> for QueryError {
    fn from(e: pdqi_relation::RelationError) -> Self {
        QueryError::TypeError(e)
    }
}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

/// One visible relation: the instance, an optional restriction to a tuple subset, and
/// (when the caller supplies one) the instance's columnar view for vectorized plans.
struct View<'a> {
    instance: &'a RelationInstance,
    subset: Option<&'a TupleSet>,
    columns: Option<&'a ColumnarView>,
}

impl<'a> View<'a> {
    fn visible_tuples(&self) -> impl Iterator<Item = &'a pdqi_relation::Tuple> + '_ {
        self.instance.iter().filter_map(move |(id, tuple)| match self.subset {
            Some(subset) if !subset.contains(id) => None,
            _ => Some(tuple),
        })
    }
}

/// A first-order query evaluator over a set of (possibly restricted) relation instances.
pub struct Evaluator<'a> {
    relations: HashMap<String, View<'a>>,
    /// Planner-chosen join order for the vectorized path: a permutation of the
    /// formula's variable-binding atoms. `None` keeps the formula's own order.
    atom_order: Option<Vec<usize>>,
    /// Planner-chosen eval path: `true` skips the vectorized plan for this evaluator
    /// (the scalar interpreter is pinned bit-identical, so the choice is free).
    prefer_scalar: bool,
}

impl<'a> Evaluator<'a> {
    /// An evaluator with no visible relation.
    pub fn new() -> Self {
        Evaluator { relations: HashMap::new(), atom_order: None, prefer_scalar: false }
    }

    /// Sets the planner-chosen join order for the vectorized path (a permutation of
    /// the formula's variable-binding atoms, in conjunct order). Reordering never
    /// changes results — rows land in a sorted set and closed evaluation is an
    /// existence check — only the enumeration order of join candidates.
    pub fn set_atom_order(&mut self, order: Option<Vec<usize>>) {
        self.atom_order = order;
    }

    /// Prefers the scalar interpreter for this evaluator regardless of shape (a
    /// planner cost decision; both paths are pinned bit-identical).
    pub fn set_prefer_scalar(&mut self, prefer: bool) {
        self.prefer_scalar = prefer;
    }

    /// An evaluator over every relation of a database instance.
    pub fn with_database(db: &'a DatabaseInstance) -> Self {
        let mut eval = Evaluator::new();
        for (_, instance) in db.iter() {
            eval.add_relation(instance);
        }
        eval
    }

    /// An evaluator over a single relation instance.
    pub fn with_relation(instance: &'a RelationInstance) -> Self {
        let mut eval = Evaluator::new();
        eval.add_relation(instance);
        eval
    }

    /// An evaluator over a single relation restricted to `subset` (e.g. one repair).
    pub fn with_restricted(instance: &'a RelationInstance, subset: &'a TupleSet) -> Self {
        let mut eval = Evaluator::new();
        eval.add_restricted(instance, subset);
        eval
    }

    /// Makes `instance` visible under its schema name.
    pub fn add_relation(&mut self, instance: &'a RelationInstance) -> &mut Self {
        self.relations.insert(
            instance.schema().name().to_string(),
            View { instance, subset: None, columns: None },
        );
        self
    }

    /// Makes `instance` visible restricted to the tuples in `subset`.
    pub fn add_restricted(
        &mut self,
        instance: &'a RelationInstance,
        subset: &'a TupleSet,
    ) -> &mut Self {
        self.relations.insert(
            instance.schema().name().to_string(),
            View { instance, subset: Some(subset), columns: None },
        );
        self
    }

    /// [`Evaluator::add_relation`] with the instance's columnar view attached, enabling
    /// vectorized evaluation of eligible formulas over this relation. `columns` must be
    /// `ColumnarView::build(instance)` (snapshots build it once and share it).
    pub fn add_relation_columnar(
        &mut self,
        instance: &'a RelationInstance,
        columns: &'a ColumnarView,
    ) -> &mut Self {
        debug_assert_eq!(columns.rows(), instance.len());
        self.relations.insert(
            instance.schema().name().to_string(),
            View { instance, subset: None, columns: Some(columns) },
        );
        self
    }

    /// [`Evaluator::add_restricted`] with the instance's columnar view attached; the
    /// vectorized path applies `subset` as the base of its selection bitmasks.
    pub fn add_restricted_columnar(
        &mut self,
        instance: &'a RelationInstance,
        subset: &'a TupleSet,
        columns: &'a ColumnarView,
    ) -> &mut Self {
        debug_assert_eq!(columns.rows(), instance.len());
        self.relations.insert(
            instance.schema().name().to_string(),
            View { instance, subset: Some(subset), columns: Some(columns) },
        );
        self
    }

    /// Evaluates a closed formula, returning its truth value.
    ///
    /// Eligible conjunctive formulas over relations with columnar views run through the
    /// vectorized plan of [`crate::vector`], pinned bit-identical to the scalar path
    /// (same verdicts; any evaluation error re-runs the scalar path so errors are the
    /// scalar ones). `PDQI_FORCE_SCALAR_EVAL=1` disables the vectorized path.
    pub fn eval_closed(&self, formula: &Formula) -> Result<bool, QueryError> {
        let free = formula.free_vars();
        if !free.is_empty() {
            return Err(QueryError::FreeVariables { variables: free });
        }
        self.check_atoms(formula)?;
        if let Some((plan, data)) = self.vector_plan(formula) {
            if let Ok(verdict) = plan.eval_closed(&data) {
                vector::count_vectorized();
                return Ok(verdict);
            }
        }
        vector::count_scalar();
        let domain = self.active_domain(formula);
        let mut env = HashMap::new();
        self.eval(formula, &mut env, &domain)
    }

    /// Parses and evaluates a closed formula.
    pub fn eval_closed_text(&self, text: &str) -> Result<bool, QueryError> {
        let formula = crate::parser::parse_formula(text)?;
        self.eval_closed(&formula)
    }

    /// Computes the answers to an open formula: every assignment of the free variables
    /// (drawn from the active domain) under which the formula holds, in lexicographic
    /// variable order. A closed formula yields one empty assignment if it is true and no
    /// assignment if it is false.
    ///
    /// A thin wrapper over [`Evaluator::answer_rows`]: distinct assignments are distinct
    /// rows, and the enumeration visits them in ascending row order, so wrapping the
    /// sorted row set back into maps reproduces the historical output exactly.
    pub fn answers(&self, formula: &Formula) -> Result<Vec<BTreeMap<String, Value>>, QueryError> {
        let free = formula.free_vars();
        let rows = self.answer_rows(formula)?;
        Ok(rows.into_iter().map(|row| free.iter().cloned().zip(row).collect()).collect())
    }

    /// The answers to an open formula as plain **rows**: for every satisfying
    /// assignment, the values of the free variables in lexicographic variable order
    /// (the order [`Evaluator::answers`] reports), collected into a sorted,
    /// de-duplicated set.
    ///
    /// This is the per-repair entry point of the repair-enumeration pipelines
    /// (sequential and parallel alike): it skips the per-answer name→value maps of
    /// [`Evaluator::answers`] and hands back a set ready for certain/possible folding.
    pub fn answer_rows(&self, formula: &Formula) -> Result<BTreeSet<Vec<Value>>, QueryError> {
        self.check_atoms(formula)?;
        if let Some((plan, data)) = self.vector_plan(formula) {
            if let Ok(rows) = plan.answer_rows(&data) {
                vector::count_vectorized();
                return Ok(rows);
            }
        }
        vector::count_scalar();
        let free = formula.free_vars();
        let domain = self.active_domain(formula);
        let mut rows = BTreeSet::new();
        let mut env: HashMap<String, Value> = HashMap::new();
        self.answer_rows_rec(formula, &free, 0, &domain, &mut env, &mut rows)?;
        Ok(rows)
    }

    /// Compiles `formula` into a vectorized plan and resolves its atoms' columnar data,
    /// or `None` when scalar evaluation is forced, the shape is unsupported, some
    /// mentioned relation has no columnar view attached, or a view's row count doesn't
    /// match its instance (a stale view must take the scalar path, not drop tuples).
    fn vector_plan<'f>(&self, formula: &'f Formula) -> Option<(VectorPlan<'f>, Vec<SlotData<'a>>)> {
        if vector::scalar_eval_forced() || self.prefer_scalar {
            return None;
        }
        let plan = VectorPlan::compile_ordered(formula, self.atom_order.as_deref())?;
        let data = plan
            .relations
            .iter()
            .map(|name| {
                let view = self.relations.get(*name)?;
                let columns = view.columns?;
                if columns.rows() != view.instance.len() {
                    return None;
                }
                Some(SlotData { columns, visible: view.subset })
            })
            .collect::<Option<Vec<_>>>()?;
        Some((plan, data))
    }

    fn answer_rows_rec(
        &self,
        formula: &Formula,
        free: &[String],
        next: usize,
        domain: &[Value],
        env: &mut HashMap<String, Value>,
        out: &mut BTreeSet<Vec<Value>>,
    ) -> Result<(), QueryError> {
        if next == free.len() {
            if self.eval(formula, env, domain)? {
                out.insert(free.iter().map(|v| env[v].clone()).collect());
            }
            return Ok(());
        }
        for value in domain {
            env.insert(free[next].clone(), value.clone());
            self.answer_rows_rec(formula, free, next + 1, domain, env, out)?;
        }
        env.remove(&free[next]);
        Ok(())
    }

    /// The active domain: every constant in a visible tuple of any *full* instance the
    /// evaluator knows about (restrictions do not shrink the domain) plus every constant
    /// of the formula.
    fn active_domain(&self, formula: &Formula) -> Vec<Value> {
        let mut domain: Vec<Value> = Vec::new();
        for view in self.relations.values() {
            for (_, tuple) in view.instance.iter() {
                domain.extend(tuple.values().iter().cloned());
            }
        }
        domain.extend(formula.constants());
        domain.sort();
        domain.dedup();
        domain
    }

    /// Validates every atom of the formula against the visible relations (existence and
    /// arity), independently of truth evaluation.
    fn check_atoms(&self, formula: &Formula) -> Result<(), QueryError> {
        match formula {
            Formula::True | Formula::False | Formula::Comparison(_) => Ok(()),
            Formula::Atom(atom) => {
                let view = self.relations.get(&atom.relation).ok_or_else(|| {
                    QueryError::UnknownRelation { relation: atom.relation.clone() }
                })?;
                let expected = view.instance.schema().arity();
                if atom.args.len() != expected {
                    return Err(QueryError::ArityMismatch {
                        relation: atom.relation.clone(),
                        expected,
                        actual: atom.args.len(),
                    });
                }
                Ok(())
            }
            Formula::Not(inner) | Formula::Exists(_, inner) | Formula::Forall(_, inner) => {
                self.check_atoms(inner)
            }
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                self.check_atoms(a)?;
                self.check_atoms(b)
            }
        }
    }

    fn eval(
        &self,
        formula: &Formula,
        env: &mut HashMap<String, Value>,
        domain: &[Value],
    ) -> Result<bool, QueryError> {
        match formula {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Atom(atom) => self.eval_atom(atom, env),
            Formula::Comparison(cmp) => self.eval_comparison(cmp, env),
            Formula::Not(inner) => Ok(!self.eval(inner, env, domain)?),
            // A false conjunct decides the conjunction whichever side it is on, so an
            // error in the other conjunct only surfaces when nothing rejects the binding.
            Formula::And(a, b) => match self.eval(a, env, domain) {
                Ok(holds) => Ok(holds && self.eval(b, env, domain)?),
                Err(e) => match self.eval(b, env, domain) {
                    Ok(false) => Ok(false),
                    _ => Err(e),
                },
            },
            Formula::Or(a, b) => Ok(self.eval(a, env, domain)? || self.eval(b, env, domain)?),
            Formula::Implies(a, b) => Ok(!self.eval(a, env, domain)? || self.eval(b, env, domain)?),
            Formula::Exists(vars, inner) => self.eval_exists(vars, inner, env, domain),
            Formula::Forall(vars, inner) => self.eval_quantifier(vars, inner, env, domain, true),
        }
    }

    /// Existential quantification. When the body is a conjunction, the search is driven
    /// by the relational atoms (a backtracking join): each atom with unbound variables
    /// proposes only the visible tuples compatible with the current bindings, and every
    /// conjunct is checked as soon as its variables are bound. Variables not covered by
    /// any atom fall back to active-domain iteration. This keeps evaluation of the
    /// paper's conjunctive queries (Q1, Q2, ...) proportional to the data rather than to
    /// `|domain|^k`.
    fn eval_exists(
        &self,
        vars: &[String],
        inner: &Formula,
        env: &mut HashMap<String, Value>,
        domain: &[Value],
    ) -> Result<bool, QueryError> {
        // Collapse directly nested existential blocks: ∃x.∃y.φ ≡ ∃x,y.φ.
        let mut all_vars: Vec<String> = vars.to_vec();
        let mut body = inner;
        while let Formula::Exists(more, deeper) = body {
            all_vars.extend(more.iter().cloned());
            body = deeper;
        }
        // The quantifier shadows any outer binding of the same variable name.
        let shadowed: Vec<(String, Value)> =
            all_vars.iter().filter_map(|v| env.remove(v).map(|value| (v.clone(), value))).collect();
        let mut conjuncts: Vec<&Formula> = Vec::new();
        flatten_conjunction(body, &mut conjuncts);
        let result = self.exists_search(&all_vars, &conjuncts, env, domain);
        for (var, value) in shadowed {
            env.insert(var, value);
        }
        result
    }

    fn exists_search(
        &self,
        vars: &[String],
        conjuncts: &[&Formula],
        env: &mut HashMap<String, Value>,
        domain: &[Value],
    ) -> Result<bool, QueryError> {
        // 1. Evaluate (and drop) every conjunct whose variables are all bound; fail fast.
        //    A conjunct that raises an error stays pending until no atom is left to
        //    match: a binding some atom rejects is no answer, so its error never
        //    surfaces — what the vectorized join does, whatever the conjunct order.
        let mut pending: Vec<&Formula> = Vec::new();
        let mut failure = None;
        for conjunct in conjuncts {
            if conjunct.free_vars().iter().all(|v| env.contains_key(v)) {
                match self.eval(conjunct, env, domain) {
                    Ok(true) => {}
                    Ok(false) => return Ok(false),
                    Err(e) => {
                        failure.get_or_insert(e);
                        pending.push(conjunct);
                    }
                }
            } else {
                pending.push(conjunct);
            }
        }
        // 2. Prefer an atom with unbound variables: its matching tuples drive the search.
        let next_atom = pending.iter().find_map(|f| match f {
            Formula::Atom(atom) => Some(atom),
            _ => None,
        });
        if let (None, Some(e)) = (next_atom, failure) {
            return Err(e);
        }
        if pending.is_empty() {
            return Ok(true);
        }
        if let Some(atom) = next_atom {
            let view = self
                .relations
                .get(&atom.relation)
                .ok_or_else(|| QueryError::UnknownRelation { relation: atom.relation.clone() })?;
            for tuple in view.visible_tuples() {
                let mut newly_bound: Vec<String> = Vec::new();
                let mut compatible = true;
                for (term, value) in atom.args.iter().zip(tuple.values()) {
                    match term {
                        Term::Const(c) => {
                            if c != value {
                                compatible = false;
                                break;
                            }
                        }
                        Term::Var(v) => match env.get(v) {
                            Some(bound) => {
                                if bound != value {
                                    compatible = false;
                                    break;
                                }
                            }
                            None => {
                                env.insert(v.clone(), value.clone());
                                newly_bound.push(v.clone());
                            }
                        },
                    }
                }
                let found = compatible && self.exists_search(vars, &pending, env, domain)?;
                for v in newly_bound {
                    env.remove(&v);
                }
                if found {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        // 3. No atom can drive the search: bind one remaining quantified variable from the
        //    active domain. If the unbound variables are not quantified here they are
        //    genuinely unbound and evaluation of the conjunct will report the error.
        let unbound_var = vars
            .iter()
            .find(|v| !env.contains_key(*v) && pending.iter().any(|f| f.free_vars().contains(v)));
        match unbound_var {
            Some(var) => {
                for value in domain {
                    env.insert(var.clone(), value.clone());
                    let found = self.exists_search(vars, &pending, env, domain)?;
                    env.remove(var);
                    if found {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            None => {
                // Every quantified variable is bound; the pending conjuncts contain other
                // unbound variables — evaluate to surface the proper error.
                for conjunct in &pending {
                    if !self.eval(conjunct, env, domain)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }

    fn eval_quantifier(
        &self,
        vars: &[String],
        inner: &Formula,
        env: &mut HashMap<String, Value>,
        domain: &[Value],
        universal: bool,
    ) -> Result<bool, QueryError> {
        if vars.is_empty() {
            return self.eval(inner, env, domain);
        }
        let (head, rest) = (&vars[0], &vars[1..]);
        let saved = env.get(head).cloned();
        let mut result = universal;
        for value in domain {
            env.insert(head.clone(), value.clone());
            let holds = self.eval_quantifier(rest, inner, env, domain, universal)?;
            if universal && !holds {
                result = false;
                break;
            }
            if !universal && holds {
                result = true;
                break;
            }
        }
        match saved {
            Some(v) => {
                env.insert(head.clone(), v);
            }
            None => {
                env.remove(head);
            }
        }
        Ok(result)
    }

    fn eval_atom(&self, atom: &Atom, env: &HashMap<String, Value>) -> Result<bool, QueryError> {
        let view = self
            .relations
            .get(&atom.relation)
            .ok_or_else(|| QueryError::UnknownRelation { relation: atom.relation.clone() })?;
        let mut resolved: Vec<Value> = Vec::with_capacity(atom.args.len());
        for term in &atom.args {
            resolved.push(self.resolve(term, env)?);
        }
        Ok(view
            .visible_tuples()
            .any(|tuple| tuple.values().iter().zip(&resolved).all(|(a, b)| a == b)))
    }

    fn eval_comparison(
        &self,
        cmp: &Comparison,
        env: &HashMap<String, Value>,
    ) -> Result<bool, QueryError> {
        let left = self.resolve(&cmp.left, env)?;
        let right = self.resolve(&cmp.right, env)?;
        Ok(cmp.op.eval(&left, &right)?)
    }

    fn resolve(&self, term: &Term, env: &HashMap<String, Value>) -> Result<Value, QueryError> {
        match term {
            Term::Const(v) => Ok(v.clone()),
            Term::Var(v) => env
                .get(v)
                .cloned()
                .ok_or_else(|| QueryError::UnboundVariable { variable: v.clone() }),
        }
    }
}

impl Default for Evaluator<'_> {
    fn default() -> Self {
        Evaluator::new()
    }
}

/// Flattens a right- or left-nested conjunction into its conjuncts.
fn flatten_conjunction<'f>(formula: &'f Formula, out: &mut Vec<&'f Formula>) {
    match formula {
        Formula::And(a, b) => {
            flatten_conjunction(a, out);
            flatten_conjunction(b, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use pdqi_relation::{RelationSchema, TupleId, ValueType};
    use std::sync::Arc;

    /// The integrated Mgr instance of Example 1.
    fn mgr_instance() -> RelationInstance {
        let schema = Arc::new(
            RelationSchema::from_pairs(
                "Mgr",
                &[
                    ("Name", ValueType::Name),
                    ("Dept", ValueType::Name),
                    ("Salary", ValueType::Int),
                    ("Reports", ValueType::Int),
                ],
            )
            .unwrap(),
        );
        RelationInstance::from_rows(
            schema,
            vec![
                vec!["Mary".into(), "R&D".into(), Value::int(40), Value::int(3)],
                vec!["John".into(), "R&D".into(), Value::int(10), Value::int(2)],
                vec!["Mary".into(), "IT".into(), Value::int(20), Value::int(1)],
                vec!["John".into(), "PR".into(), Value::int(30), Value::int(4)],
            ],
        )
        .unwrap()
    }

    const Q1: &str =
        "EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2) AND s1 < s2";
    const Q2: &str = "EXISTS d1,s1,r1,d2,s2,r2 . Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2) AND s1 > s2 AND r1 < r2";

    #[test]
    fn q1_is_true_in_the_integrated_instance() {
        // The misleading answer discussed in Example 1: Mary-IT (20) vs John-PR (30).
        let r = mgr_instance();
        let eval = Evaluator::with_relation(&r);
        assert!(eval.eval_closed_text(Q1).unwrap());
    }

    #[test]
    fn q1_truth_varies_across_the_repairs_of_example_2() {
        let r = mgr_instance();
        // r1 = {Mary-R&D, John-PR}: Mary earns 40 > 30, Q1 false.
        let r1 = TupleSet::from_ids([TupleId(0), TupleId(3)]);
        // r2 = {John-R&D, Mary-IT}: Mary earns 20 > 10, Q1 false.
        let r2 = TupleSet::from_ids([TupleId(1), TupleId(2)]);
        // r3 = {Mary-IT, John-PR}: Mary earns 20 < 30, Q1 true.
        let r3 = TupleSet::from_ids([TupleId(2), TupleId(3)]);
        let q1 = parse_formula(Q1).unwrap();
        assert!(!Evaluator::with_restricted(&r, &r1).eval_closed(&q1).unwrap());
        assert!(!Evaluator::with_restricted(&r, &r2).eval_closed(&q1).unwrap());
        assert!(Evaluator::with_restricted(&r, &r3).eval_closed(&q1).unwrap());
    }

    #[test]
    fn q2_holds_exactly_in_repairs_r1_and_r2() {
        let r = mgr_instance();
        let q2 = parse_formula(Q2).unwrap();
        let r1 = TupleSet::from_ids([TupleId(0), TupleId(3)]);
        let r2 = TupleSet::from_ids([TupleId(1), TupleId(2)]);
        let r3 = TupleSet::from_ids([TupleId(2), TupleId(3)]);
        assert!(Evaluator::with_restricted(&r, &r1).eval_closed(&q2).unwrap());
        assert!(Evaluator::with_restricted(&r, &r2).eval_closed(&q2).unwrap());
        assert!(!Evaluator::with_restricted(&r, &r3).eval_closed(&q2).unwrap());
    }

    #[test]
    fn ground_atoms_and_negation() {
        let r = mgr_instance();
        let eval = Evaluator::with_relation(&r);
        assert!(eval.eval_closed_text("Mgr('Mary','R&D',40,3)").unwrap());
        assert!(!eval.eval_closed_text("Mgr('Mary','R&D',41,3)").unwrap());
        assert!(eval.eval_closed_text("NOT Mgr('Mary','PR',30,4)").unwrap());
    }

    #[test]
    fn universal_quantification_uses_the_active_domain() {
        let r = mgr_instance();
        let eval = Evaluator::with_relation(&r);
        // Every manager tuple has a salary of at least 10.
        assert!(eval.eval_closed_text("FORALL n,d,s,rep . Mgr(n,d,s,rep) -> s >= 10").unwrap());
        assert!(!eval.eval_closed_text("FORALL n,d,s,rep . Mgr(n,d,s,rep) -> s >= 20").unwrap());
    }

    #[test]
    fn open_formulas_produce_answer_sets() {
        let r = mgr_instance();
        let eval = Evaluator::with_relation(&r);
        // Who manages R&D? Two conflicting answers in the integrated instance.
        let f = parse_formula("EXISTS s,rep . Mgr(x,'R&D',s,rep)").unwrap();
        let answers = eval.answers(&f).unwrap();
        assert_eq!(answers.len(), 2);
        let names: Vec<&Value> = answers.iter().map(|a| &a["x"]).collect();
        assert!(names.contains(&&Value::name("Mary")));
        assert!(names.contains(&&Value::name("John")));
    }

    #[test]
    fn closed_formula_answers_are_the_empty_assignment_or_nothing() {
        let r = mgr_instance();
        let eval = Evaluator::with_relation(&r);
        assert_eq!(eval.answers(&parse_formula(Q1).unwrap()).unwrap().len(), 1);
        assert_eq!(
            eval.answers(&parse_formula("Mgr('Nobody','X',1,1)").unwrap()).unwrap().len(),
            0
        );
    }

    #[test]
    fn restriction_does_not_shrink_the_active_domain() {
        let r = mgr_instance();
        let empty = TupleSet::new();
        let eval = Evaluator::with_restricted(&r, &empty);
        // No tuple is visible, but quantification still ranges over the instance values.
        assert!(!eval.eval_closed_text("EXISTS n,d,s,rep . Mgr(n,d,s,rep)").unwrap());
        assert!(eval.eval_closed_text("EXISTS x . x = 40").unwrap());
    }

    #[test]
    fn errors_are_reported() {
        let r = mgr_instance();
        let eval = Evaluator::with_relation(&r);
        assert!(matches!(
            eval.eval_closed(&parse_formula("Nope(1)").unwrap()),
            Err(QueryError::UnknownRelation { .. })
        ));
        assert!(matches!(
            eval.eval_closed(&parse_formula("Mgr(1,2)").unwrap()),
            Err(QueryError::ArityMismatch { .. })
        ));
        assert!(matches!(
            eval.eval_closed(&parse_formula("EXISTS s,r . Mgr(x,'R&D',s,r)").unwrap()),
            Err(QueryError::FreeVariables { .. })
        ));
        // Ordering a name constant is a type error.
        assert!(matches!(
            eval.eval_closed(&parse_formula("'Mary' < 'John'").unwrap()),
            Err(QueryError::TypeError(_))
        ));
    }

    #[test]
    fn eval_closed_text_reports_parse_errors() {
        let r = mgr_instance();
        let eval = Evaluator::with_relation(&r);
        assert!(matches!(eval.eval_closed_text("Mgr("), Err(QueryError::Parse(_))));
    }

    #[test]
    fn columnar_path_handles_comparisons_preceding_their_binding_atoms() {
        // Regression: this conjunct order used to panic the plan compiler; the
        // comparison must also land on the right slot, so pin against the scalar path.
        let r = mgr_instance();
        let columns = ColumnarView::build(&r);
        let mut columnar = Evaluator::new();
        columnar.add_relation_columnar(&r, &columns);
        let scalar = Evaluator::with_relation(&r);
        for text in [
            "EXISTS x,d,s,r . s >= 20 AND Mgr(x,d,s,r)",
            "EXISTS d,s,r . s >= 20 AND Mgr(x,d,s,r)",
            "EXISTS d1,s1,r1,d2,s2,r2 . \
             s1 < s2 AND Mgr('Mary',d1,s1,r1) AND Mgr('John',d2,s2,r2)",
        ] {
            let f = parse_formula(text).unwrap();
            assert_eq!(
                columnar.answer_rows(&f).unwrap(),
                scalar.answer_rows(&f).unwrap(),
                "{text}"
            );
        }
    }

    #[test]
    fn bindings_an_atom_rejects_never_raise_errors() {
        /// Restores the path choice the process started with, even on a failed assert.
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                crate::vector::force_scalar_eval(self.0);
            }
        }
        let _restore = Restore(crate::vector::scalar_eval_forced());
        // Ints and names share the active domain, so the scalar path also binds `a` to
        // names; only the atom may reject those bindings.
        let schema = Arc::new(
            RelationSchema::from_pairs("R", &[("A", ValueType::Int), ("B", ValueType::Name)])
                .unwrap(),
        );
        let rows = vec![vec![Value::int(1), "v".into()], vec![Value::int(-1), "w".into()]];
        let r = RelationInstance::from_rows(schema, rows).unwrap();
        let columns = ColumnarView::build(&r);
        let mut eval = Evaluator::new();
        eval.add_relation_columnar(&r, &columns);
        let negative = BTreeSet::from([vec![Value::int(-1)]]);
        for force in [true, false] {
            crate::vector::force_scalar_eval(force);
            for text in [
                "EXISTS b . R(a,b) AND NOT a > 0",
                "EXISTS b . NOT a > 0 AND R(a,b)",
                "EXISTS b . R(a,b) AND (a < 0 OR a > 5)",
                "EXISTS b . (a < 0 OR a > 5) AND R(a,b)",
                "EXISTS b . R(a,b) AND a < 0",
                "EXISTS b . a < 0 AND R(a,b)",
            ] {
                let rows = eval.answer_rows(&parse_formula(text).unwrap());
                assert_eq!(rows.unwrap(), negative, "{text} (scalar forced: {force})");
            }
            // The same without a quantifier: the conjunction binds `a` and `b` itself.
            let row = BTreeSet::from([vec![Value::int(-1), "w".into()]]);
            for text in ["R(a,b) AND NOT a > 0", "NOT a > 0 AND R(a,b)"] {
                let rows = eval.answer_rows(&parse_formula(text).unwrap());
                assert_eq!(rows.unwrap(), row, "{text} (scalar forced: {force})");
            }
            // A comparison that is ill-typed on a stored row still fails on both paths.
            for text in ["EXISTS a . R(a,b) AND b > 0", "EXISTS a . b > 0 AND R(a,b)"] {
                let rows = eval.answer_rows(&parse_formula(text).unwrap());
                assert!(
                    matches!(rows, Err(QueryError::TypeError(_))),
                    "{text} (scalar forced: {force}): {rows:?}"
                );
            }
        }
    }

    #[test]
    fn stale_columnar_view_falls_back_to_the_scalar_path() {
        // A view whose row count disagrees with the instance must not drop tuples.
        let r = mgr_instance();
        let truncated = {
            let rows: Vec<Vec<Value>> =
                r.iter().take(2).map(|(_, t)| t.values().to_vec()).collect();
            RelationInstance::from_rows(r.schema().clone(), rows).unwrap()
        };
        let stale = ColumnarView::build(&truncated);
        let mut eval = Evaluator::new();
        eval.add_relation(&r); // no debug_assert on the mismatched pairing
        eval.relations.get_mut("Mgr").unwrap().columns = Some(&stale);
        // The only 'IT' tuple sits past the stale view's rows: a silent columnar run
        // would answer empty.
        let f = parse_formula("EXISTS s,rep . Mgr(x,'IT',s,rep)").unwrap();
        let rows = eval.answer_rows(&f).unwrap();
        assert_eq!(rows, Evaluator::with_relation(&r).answer_rows(&f).unwrap());
        assert_eq!(rows.len(), 1);
    }
}
