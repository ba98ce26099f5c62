import functools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeseg.data import ColumnSpec, Dataset
from treeseg.leaf_models import GPModel
from treeseg.persistence import (SCHEMA_VERSION, PersistenceError,
                                 load_bundle, load_model, model_document,
                                 save_model)
from treeseg.pipeline import (FitConfig, OutlierConfig, fit_segmented,
                              predict_batch)


def fitted_model(rng, method, n=260, **kw):
    X = rng.uniform(-2, 2, size=(n, 2))
    y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + rng.normal(size=n) * 0.1
    data = Dataset(X, y, ("a", "b"))
    config = FitConfig(leaf_size=60, leaf_method=method, **kw)
    return fit_segmented(data, config)


@pytest.mark.parametrize("method,extra", [
    ("constant", {}),
    ("linear", {}),
    ("linear", {"ridge_eps": 0.5}),
    ("gp", {"gp_max_iters": 8}),
])
def test_round_trip_predictions_bit_exact(rng, tmp_path, method, extra):
    model = fitted_model(rng, method, **extra)
    queries = rng.uniform(-2.5, 2.5, size=(1000, 2))
    before = predict_batch(model, queries)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    loaded = load_model(path)
    after = predict_batch(loaded, queries)
    assert np.array_equal(before, after)


def test_round_trip_preserves_config_and_report(rng, tmp_path):
    model = fitted_model(rng, "linear",
                         outlier=OutlierConfig(enabled=True, contamination=0.02,
                                               n_trees=20, subsample=64))
    path = str(tmp_path / "model.json")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.n_train_rows == model.n_train_rows
    assert loaded.n_removed_outliers == model.n_removed_outliers
    assert set(loaded.fit_report) == set(model.fit_report)
    for sid, status in model.fit_report.items():
        assert loaded.fit_report[sid] == status


def test_resave_is_byte_identical(rng, tmp_path):
    model = fitted_model(rng, "gp", gp_max_iters=5)
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    save_model(model, p1)
    save_model(load_model(p1), p2)
    with open(p1, "rb") as fh:
        first = fh.read()
    with open(p2, "rb") as fh:
        second = fh.read()
    assert first == second
    # The GP mean-path constants are derived on first use, never stored.
    for leaf_doc in json.loads(first)["leaf_models"].values():
        assert not {"linear_weights", "rbf_columns", "rbf_weights"} & set(leaf_doc)


def test_gp_optimizer_record_round_trips(rng, tmp_path):
    model = fitted_model(rng, "gp", gp_max_iters=5)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    loaded = load_model(path)
    gps = {sid: m for sid, m in model.leaf_models.items() if isinstance(m, GPModel)}
    assert gps
    for sid, fresh in gps.items():
        back = loaded.leaf_models[sid]
        assert fresh.n_evaluations >= fresh.n_iterations > 0
        assert (back.n_iterations, back.n_evaluations, back.converged) == (
            fresh.n_iterations, fresh.n_evaluations, fresh.converged)


def test_gp_document_without_optimizer_record_loads(rng, tmp_path):
    # Documents written before n_evaluations and converged were recorded.
    model = fitted_model(rng, "gp", gp_max_iters=3)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    gp_docs = [d for d in doc["leaf_models"].values() if d["type"] == "gp"]
    assert gp_docs
    for leaf_doc in gp_docs:
        del leaf_doc["n_evaluations"], leaf_doc["converged"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for leaf in load_model(path).leaf_models.values():
        if isinstance(leaf, GPModel):
            assert (leaf.n_evaluations, leaf.converged) == (0, False)


def test_ingestion_recipe_rides_along(rng, tmp_path):
    model = fitted_model(rng, "constant")
    recipe = {"columns": [{"name": "a"}, {"name": "b"},
                          {"name": "y", "kind": "target"}],
              "levels": {}}
    path = str(tmp_path / "model.json")
    save_model(model, path, ingestion=recipe)
    loaded, stored = load_bundle(path)
    assert stored == ([ColumnSpec("a"), ColumnSpec("b"), ColumnSpec("y", kind="target")], {})
    _, none_stored = load_bundle_without_recipe(rng, tmp_path)
    assert none_stored is None


def load_bundle_without_recipe(rng, tmp_path):
    model = fitted_model(rng, "constant")
    path = str(tmp_path / "bare.json")
    save_model(model, path)
    return load_bundle(path)


def test_document_is_pure_json(rng):
    model = fitted_model(rng, "gp", gp_max_iters=3)
    doc = model_document(model)
    text = json.dumps(doc, allow_nan=False)  # raises on NaN/Inf
    assert json.loads(text) == doc
    assert doc["schema_version"] == SCHEMA_VERSION


def test_corrupted_file_rejected(tmp_path):
    path = str(tmp_path / "junk.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    with pytest.raises(PersistenceError, match="not a valid model document"):
        load_model(path)


@pytest.mark.parametrize("content", [
    b'{"schema_version": 1, "kind": "\xff"}',
    b"[" * 200000 + b"]" * 200000,
], ids=["not-utf8", "nested-200000-deep"])
def test_undecodable_file_rejected(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(PersistenceError, match="not a valid model document"):
        load_model(str(path))


def test_byte_order_mark_accepted(rng, tmp_path):
    model = fitted_model(rng, "linear")
    path = tmp_path / "model.json"
    save_model(model, str(path))
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    queries = rng.uniform(-2.5, 2.5, size=(50, 2))
    assert np.array_equal(predict_batch(load_model(str(path)), queries),
                          predict_batch(model, queries))


def test_wrong_document_kind_rejected(tmp_path):
    path = str(tmp_path / "other.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "kind": "something-else"}, fh)
    with pytest.raises(PersistenceError):
        load_model(path)


def test_future_schema_version_rejected(rng, tmp_path):
    model = fitted_model(rng, "constant")
    path = str(tmp_path / "model.json")
    save_model(model, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["schema_version"] = SCHEMA_VERSION + 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with pytest.raises(PersistenceError, match="newer than the supported"):
        load_model(path)


@pytest.mark.parametrize("version", [True, "1"])
def test_non_integer_schema_version_rejected(rng, tmp_path, version):
    # true == 1 in Python, so the version must be read as an integer proper.
    path = str(tmp_path / "model.json")
    save_model(fitted_model(rng, "constant"), path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["schema_version"] = version
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with pytest.raises(PersistenceError, match="schema_version must be an integer"):
        load_model(path)


def test_missing_leaf_model_rejected(rng, tmp_path):
    model = fitted_model(rng, "linear")
    path = str(tmp_path / "model.json")
    save_model(model, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    victim = next(iter(doc["leaf_models"]))
    del doc["leaf_models"][victim]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with pytest.raises(PersistenceError, match="cover every segment"):
        load_model(path)


def rewrite(path, edit):
    """Apply edit to the stored document in place."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def test_string_outlier_enabled_rejected(rng, tmp_path):
    model = fitted_model(rng, "constant")
    path = str(tmp_path / "model.json")
    save_model(model, path)
    rewrite(path, lambda doc: doc["config"]["outlier"].update(enabled="false"))
    with pytest.raises(PersistenceError, match="enabled"):
        load_model(path)


@pytest.mark.parametrize("section", ["leaf_models", "scalers", "fit_report"])
def test_second_key_for_a_segment_rejected(rng, tmp_path, section):
    # "01" parses to segment 1 too; it must not replace or shadow the "1" entry.
    model = fitted_model(rng, "linear")
    path = str(tmp_path / "model.json")
    save_model(model, path)
    rewrite(path, lambda doc: doc[section].update({"01": doc[section]["1"]}))
    with pytest.raises(PersistenceError, match="cover every segment"):
        load_model(path)


@pytest.mark.parametrize("section", ["leaf_models", "scalers", "fit_report"])
def test_list_valued_section_rejected(rng, tmp_path, section):
    # The section's keys as a JSON list: no .items() to call.
    model = fitted_model(rng, "linear")
    path = str(tmp_path / "model.json")
    save_model(model, path)
    rewrite(path, lambda doc: doc.update({section: sorted(doc[section])}))
    with pytest.raises(PersistenceError, match=f"{section} is not an object"):
        load_model(path)


def test_list_valued_leaf_model_rejected(rng, tmp_path):
    model = fitted_model(rng, "linear")
    path = str(tmp_path / "model.json")
    save_model(model, path)
    rewrite(path, lambda doc: doc["leaf_models"].update({"0": ["linear"]}))
    with pytest.raises(PersistenceError, match="leaf model must be an object"):
        load_model(path)


def test_missing_fit_report_entry_rejected(rng, tmp_path):
    model = fitted_model(rng, "linear")
    path = str(tmp_path / "model.json")
    save_model(model, path)
    rewrite(path, lambda doc: doc["fit_report"].pop(next(iter(doc["fit_report"]))))
    with pytest.raises(PersistenceError, match="fit report does not cover every segment"):
        load_model(path)


def linear_report_entry(doc):
    """The fit-report entry of the first segment that holds a linear model."""
    return doc["fit_report"][next(k for k, d in doc["leaf_models"].items()
                                  if d["type"] == "linear")]


# Each edit writes a fit-report entry, or a removed-row count, that no fit writes.
REPORT_CORRUPTIONS = {
    "status banana": lambda doc: linear_report_entry(doc).update(status="banana"),
    "status null": lambda doc: linear_report_entry(doc).update(status=None),
    "method unknown": lambda doc: linear_report_entry(doc).update(method="spline"),
    "method gp on a linear leaf": lambda doc: linear_report_entry(doc).update(method="gp"),
    "method constant on a linear leaf": lambda doc: linear_report_entry(doc).update(
        method="constant"),
    "reason list": lambda doc: linear_report_entry(doc).update(reason=[1, 2]),
    "reason number": lambda doc: linear_report_entry(doc).update(reason=3),
    "status, method and reason": lambda doc: linear_report_entry(doc).update(
        status="banana", method="gp", reason=[1, 2]),
    "n_removed_outliers negative": lambda doc: doc.update(n_removed_outliers=-1),
}


@pytest.mark.parametrize("name", sorted(REPORT_CORRUPTIONS))
def test_report_entry_no_fit_writes_rejected(rng, tmp_path, name):
    model = fitted_model(rng, "linear")
    path = str(tmp_path / "model.json")
    save_model(model, path)
    rewrite(path, REPORT_CORRUPTIONS[name])
    with pytest.raises(PersistenceError, match="fit report of segment|n_removed_outliers"):
        load_model(path)


@pytest.mark.parametrize("delta", [-1, 1])
def test_train_row_count_must_match_leaf_counts(rng, tmp_path, delta):
    model = fitted_model(rng, "constant")
    path = str(tmp_path / "model.json")
    save_model(model, path)

    def edit(doc):
        doc["n_train_rows"] += delta

    rewrite(path, edit)
    with pytest.raises(PersistenceError, match="n_train_rows"):
        load_model(path)


@pytest.mark.parametrize("field,value", [
    ("training_inputs", float("nan")),
    ("training_inputs", float("inf")),
    ("alpha", float("nan")),
    ("alpha", float("-inf")),
    pytest.param("training_inputs", 10 ** 400, id="training_inputs-integer-1e400"),
    pytest.param("alpha", 10 ** 400, id="alpha-integer-1e400"),
    pytest.param("training_inputs", True, id="training_inputs-boolean"),
    pytest.param("training_inputs", None, id="training_inputs-null"),
    pytest.param("alpha", "0.5", id="alpha-string"),
])
def test_non_finite_gp_arrays_rejected(rng, tmp_path, field, value):
    model = fitted_model(rng, "gp", gp_max_iters=3)
    path = str(tmp_path / "model.json")
    save_model(model, path)

    def edit(doc):
        leaf_doc = next(d for d in doc["leaf_models"].values() if d["type"] == "gp")
        if field == "alpha":
            leaf_doc["alpha"][0] = value
        else:
            leaf_doc["training_inputs"][0][0] = value

    rewrite(path, edit)
    with pytest.raises(PersistenceError, match="not finite"):
        load_model(path)


def first_leaf(doc, kind):
    return next(d for d in doc["leaf_models"].values() if d["type"] == kind)


# Each edit corrupts one field of a saved linear model. The "@1e400@" marker
# is written as the bare JSON literal 1e400, which parses to infinity.
CORRUPTIONS = {
    "config leaf_size 20.7": lambda doc: doc["config"].update(leaf_size=20.7),
    "config seed string": lambda doc: doc["config"].update(seed="7"),
    "config gp_max_iters true": lambda doc: doc["config"].update(gp_max_iters=True),
    "config ridge_eps 1e400": lambda doc: doc["config"].update(ridge_eps="@1e400@"),
    "config contamination NaN": lambda doc: doc["config"]["outlier"].update(
        contamination=float("nan")),
    "used_fallback string": lambda doc: first_leaf(doc, "linear").update(used_fallback="false"),
    "used_fallback 0": lambda doc: first_leaf(doc, "linear").update(used_fallback=0),
    "intercept NaN": lambda doc: first_leaf(doc, "linear").update(intercept=float("nan")),
    "weight 1e400": lambda doc: first_leaf(doc, "linear")["weights"].__setitem__(0, "@1e400@"),
    "weight integer 1e400": lambda doc: first_leaf(doc, "linear")["weights"].__setitem__(
        0, 10 ** 400),
    "weights strings": lambda doc: first_leaf(doc, "linear").update(
        weights=[repr(w) for w in first_leaf(doc, "linear")["weights"]]),
    "root feature 1.9": lambda doc: doc["tree"]["root"].update(feature=1.9),
    "root feature out of range": lambda doc: doc["tree"]["root"].update(feature=2),
    "root feature negative": lambda doc: doc["tree"]["root"].update(feature=-1),
    "root threshold NaN": lambda doc: doc["tree"]["root"].update(threshold=float("nan")),
    "tree leaf_size 60.5": lambda doc: doc["tree"].update(leaf_size=60.5),
    "tree leaf_size -5": lambda doc: doc["tree"].update(leaf_size=-5),
    "tree leaf_size off config": lambda doc: doc["tree"].update(
        leaf_size=doc["config"]["leaf_size"] + 1),
    "tree feature_names string": lambda doc: doc["tree"].update(feature_names="ab"),
    "tree feature_names integers": lambda doc: doc["tree"].update(feature_names=[1, 2]),
    "tree n_leaves integer 1e400": lambda doc: doc["tree"].update(n_leaves=10 ** 400),
    "tree root a list": lambda doc: doc["tree"].update(root=[]),
    "split left a list": lambda doc: doc["tree"]["root"].update(left=[1]),
    "scaler std Infinity": lambda doc: next(iter(doc["scalers"].values()))["std"].__setitem__(
        0, float("inf")),
    "scaler mean NaN": lambda doc: next(iter(doc["scalers"].values()))["mean"].__setitem__(
        0, float("nan")),
    "scaler mean integer 1e400": lambda doc: next(iter(doc["scalers"].values()))[
        "mean"].__setitem__(0, 10 ** 400),
    "scaler std boolean": lambda doc: next(iter(doc["scalers"].values()))["std"].__setitem__(
        0, True),
    "scaler mean null": lambda doc: next(iter(doc["scalers"].values()))["mean"].__setitem__(
        0, None),
    "n_train_rows float": lambda doc: doc.update(n_train_rows=doc["n_train_rows"] + 0.5),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_field_rejected(rng, tmp_path, name):
    model = fitted_model(rng, "linear")
    assert model.tree.n_leaves > 1  # the root is a split
    path = str(tmp_path / "model.json")
    save_model(model, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    CORRUPTIONS[name](doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc).replace('"@1e400@"', "1e400"))
    with pytest.raises(PersistenceError, match="failed validation|not finite|true or false"):
        load_model(path)


@pytest.mark.parametrize("field,value", [
    ("converged", "true"),
    ("converged", 1),
    ("jitter", float("nan")),
    ("log_marginal", float("-inf")),
    ("n_iterations", 2.5),
])
def test_corrupted_gp_field_rejected(rng, tmp_path, field, value):
    model = fitted_model(rng, "gp", gp_max_iters=3)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    rewrite(path, lambda doc: first_leaf(doc, "gp").update({field: value}))
    with pytest.raises(PersistenceError, match=field):
        load_model(path)


@pytest.mark.parametrize("value", [float("nan"), pytest.param(10 ** 400, id="integer-1e400")])
def test_non_finite_gp_parameter_rejected(rng, tmp_path, value):
    model = fitted_model(rng, "gp", gp_max_iters=3)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    rewrite(path, lambda doc: first_leaf(doc, "gp")["params"].update(rbf_lengthscale=value))
    with pytest.raises(PersistenceError, match="rbf_lengthscale"):
        load_model(path)


def test_tampered_gp_matrix_rejected(rng, tmp_path):
    model = fitted_model(rng, "gp", gp_max_iters=3)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for leaf_doc in doc["leaf_models"].values():
        if leaf_doc["type"] == "gp":
            leaf_doc["training_inputs"] = leaf_doc["training_inputs"][:-1]
            break
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with pytest.raises(PersistenceError):
        load_model(path)


def test_no_partial_file_on_failed_save(rng, tmp_path):
    # Saving into a directory that does not exist must not leave a
    # temp file behind in the parent.
    model = fitted_model(rng, "constant")
    missing = tmp_path / "not-here" / "model.json"
    with pytest.raises(OSError):
        save_model(model, str(missing))
    assert list(tmp_path.iterdir()) == []


@functools.lru_cache(maxsize=None)
def saved_documents() -> tuple[str, ...]:
    """Saved documents of a small GP model and of a linear model fit with
    the outlier filter on and a categorical ingestion recipe."""
    rng = np.random.default_rng(11)
    gp = fitted_model(rng, "gp", n=80, gp_max_iters=2)
    linear = fitted_model(rng, "linear", outlier=OutlierConfig(enabled=True, n_trees=5))
    recipe = {"columns": [{"name": "a"}, {"name": "b", "kind": "categorical"},
                          {"name": "y", "kind": "target"}], "levels": {"b": ["u", "v"]}}
    return (json.dumps(model_document(gp)), json.dumps(model_document(linear, recipe)))


_REPLACEMENTS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10 ** 400), st.floats(),
    st.text(max_size=4), st.lists(st.integers(-2, 3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "type", "mean", "root"]), st.integers(-1, 3),
                    max_size=2))


@st.composite
def mutated_documents(draw):
    """A saved document with one to three values replaced or keys deleted."""
    doc = json.loads(draw(st.sampled_from(saved_documents())))
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while (isinstance(node, (dict, list)) and node
               and (parent is None or draw(st.integers(0, 3)))):
            key = (draw(st.sampled_from(sorted(node))) if isinstance(node, dict)
                   else draw(st.integers(0, len(node) - 1)))
            parent, node = node, node[key]
        if parent is None:
            continue
        if isinstance(parent, dict) and draw(st.integers(0, 4)) == 0:
            del parent[key]
        else:
            parent[key] = draw(_REPLACEMENTS)
    return json.dumps(doc).encode()


@st.composite
def document_bytes(draw):
    """Arbitrary bytes, or a saved document with arbitrary bytes spliced in,
    after an optional byte-order mark."""
    if draw(st.booleans()):
        body = draw(st.binary(max_size=64))
    else:
        text = draw(st.sampled_from(saved_documents())).encode()
        start = draw(st.integers(0, len(text)))
        end = start + draw(st.integers(0, 8))
        body = text[:start] + draw(st.binary(max_size=8)) + text[end:]
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + body


def loads_or_raises_persistence_error(content: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            load_bundle(path)
        except PersistenceError:
            pass


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_document_loads_or_raises_persistence_error(content):
    loads_or_raises_persistence_error(content)


@settings(max_examples=200, deadline=None)
@given(document_bytes())
def test_arbitrary_bytes_load_or_raise_persistence_error(content):
    loads_or_raises_persistence_error(content)
