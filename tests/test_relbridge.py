import pytest

from arrac import (
    Array,
    ArrayV,
    Column,
    DimensionLabels,
    FloatV,
    IntV,
    StrV,
    TableSchema,
    UNDEF,
    decode_table,
    encode_table,
    label_select,
)
from arrac.errors import (
    DuplicateKey,
    MissingCell,
    SchemaMismatch,
    UnknownLabel,
)
from arrac.relbridge import format_delimited


SENSORS = TableSchema(
    (
        Column("id", "int"),
        Column("site", "str"),
        Column("temp", "float"),
    ),
    key_column="id",
)

ROWS = [
    [3, "roof", 21.5],
    [1, "yard", 19.0],
    [7, "lab", 22.25],
]


def test_encode_produces_row_by_column_array():
    arr, labels = encode_table(SENSORS, ROWS)
    assert arr.arity == 2
    assert len(arr) == 9
    # key column drives dim 0
    assert arr[(3, 0)] == IntV(3)
    assert arr[(1, 1)] == StrV("yard")
    assert arr[(7, 2)] == FloatV(22.25)
    assert labels.coord_of(1, "site") == 1
    assert labels.labels_for(1)["temp"] == 2


def test_decode_restores_rows_sorted_by_key():
    arr, labels = encode_table(SENSORS, ROWS)
    assert decode_table(arr, labels, SENSORS) == [
        (1, "yard", 19.0),
        (3, "roof", 21.5),
        (7, "lab", 22.25),
    ]


def test_row_numbers_used_without_key_column():
    schema = TableSchema((Column("a", "int"), Column("b", "str")))
    arr, labels = encode_table(schema, [[10, "x"], [20, "y"]])
    assert arr[(0, 0)] == IntV(10)
    assert arr[(1, 1)] == StrV("y")
    assert decode_table(arr, labels, schema) == [(10, "x"), (20, "y")]


def test_duplicate_keys_rejected():
    with pytest.raises(DuplicateKey) as err:
        encode_table(SENSORS, [[5, "a", 1.0], [5, "b", 2.0]])
    assert "5" in str(err.value)


def test_key_must_be_nonnegative_int():
    with pytest.raises(SchemaMismatch):
        encode_table(SENSORS, [[-1, "a", 1.0]])
    with pytest.raises(SchemaMismatch):
        encode_table(SENSORS, [["oops", "a", 1.0]])


def test_cell_type_tags_enforced():
    schema = TableSchema((Column("n", "int"),))
    with pytest.raises(SchemaMismatch):
        encode_table(schema, [["not an int"]])
    with pytest.raises(SchemaMismatch):
        encode_table(schema, [[1.5]])
    # a bool is an int to Python, not to a typed column
    for tag in ("int", "float"):
        with pytest.raises(SchemaMismatch, match="row 0, column 'n': True does not fit type"):
            encode_table(TableSchema((Column("n", tag),)), [[True]])
    with pytest.raises(SchemaMismatch, match=r"row 1, column 'x': \[1\] does not fit type 'any'"):
        encode_table(TableSchema((Column("x", "any"),)), [[1], [[1]]])
    # NaN is no value the model stores, in a typed column or an untyped one
    for tag in ("float", "any"):
        with pytest.raises(SchemaMismatch, match=f"row 1, column 'x': nan does not fit type '{tag}'"):
            encode_table(TableSchema((Column("x", tag),)), [[1.5], [float("nan")]])


def test_typed_columns_take_their_value_objects():
    inner = Array(1, [((0,), "deep")])
    schema = TableSchema(
        (Column("k", "int"), Column("n", "int"), Column("f", "float"),
         Column("s", "str"), Column("a", "array")),
        key_column="k",
    )
    arr, _ = encode_table(schema, [
        [IntV(2), IntV(5), FloatV(0.5), StrV("v"), ArrayV(inner)],
        [4, 6, 3, "w", inner],
    ])
    assert list(arr.items()) == [
        ((2, 0), IntV(2)), ((2, 1), IntV(5)), ((2, 2), FloatV(0.5)),
        ((2, 3), StrV("v")), ((2, 4), ArrayV(inner)),
        ((4, 0), IntV(4)), ((4, 1), IntV(6)), ((4, 2), FloatV(3.0)),
        ((4, 3), StrV("w")), ((4, 4), ArrayV(inner)),
    ]
    assert type(arr[(4, 2)].value) is float


def test_ragged_rows_rejected():
    with pytest.raises(SchemaMismatch):
        encode_table(SENSORS, [[1, "a"]])


def test_missing_cells_become_undef_and_back_to_none():
    schema = TableSchema((Column("a", "int"), Column("b", "str")))
    arr, labels = encode_table(schema, [[1, None], [2, "ok"]])
    assert arr[(0, 1)] is UNDEF
    assert decode_table(arr, labels, schema) == [(1, None), (2, "ok")]


def test_decode_requires_every_cell():
    arr, labels = encode_table(SENSORS, ROWS)
    holed = Array(2, [(i, v) for i, v in arr.items() if i != (3, 1)])
    with pytest.raises(MissingCell) as err:
        decode_table(holed, labels, SENSORS)
    assert err.value.row == 3
    assert err.value.column == "site"


def test_decode_with_narrower_schema_projects_columns():
    arr, labels = encode_table(SENSORS, ROWS)
    narrow = TableSchema((Column("id", "int"), Column("site", "str")))
    assert decode_table(arr, labels, narrow) == [(1, "yard"), (3, "roof"), (7, "lab")]
    with pytest.raises(SchemaMismatch):
        decode_table(Array(1, [((0,), "x")]), labels, narrow)


def test_array_valued_cells_round_trip():
    inner = Array(1, [((0,), "deep")])
    schema = TableSchema((Column("k", "int"), Column("payload", "array")), key_column="k")
    arr, labels = encode_table(schema, [[4, inner]])
    assert arr[(4, 1)] == ArrayV(inner)
    assert decode_table(arr, labels, schema) == [(4, inner)]


def test_any_column_accepts_mixed_values():
    schema = TableSchema((Column("x", "any"),))
    arr, labels = encode_table(schema, [[1], ["two"], [3.0]])
    assert decode_table(arr, labels, schema) == [(1,), ("two",), (3.0,)]


def test_label_select_picks_a_column():
    arr, labels = encode_table(SENSORS, ROWS)
    temps = label_select(arr, labels, 1, "temp")
    assert temps.support() == frozenset({(1, 2), (3, 2), (7, 2)})
    assert temps[(7, 2)] == FloatV(22.25)


def test_unknown_label_raises():
    arr, labels = encode_table(SENSORS, ROWS)
    with pytest.raises(UnknownLabel):
        label_select(arr, labels, 1, "humidity")
    with pytest.raises(UnknownLabel):
        labels.coord_of(0, "temp")


def test_labels_must_be_bijective_per_dim():
    with pytest.raises(ValueError):
        DimensionLabels({1: {"a": 0, "b": 0}})
    with pytest.raises(ValueError):
        DimensionLabels({1: {"has space": 0}})
    with pytest.raises(ValueError):
        DimensionLabels({1: {"eq=sign": 0}})


def test_schema_column_names_unique():
    with pytest.raises(ValueError):
        TableSchema((Column("a", "int"), Column("a", "str")))
    with pytest.raises(ValueError):
        TableSchema((Column("a", "int"),), key_column="missing")
    with pytest.raises(ValueError):
        Column("a", "vector")


def test_format_delimited_refuses_a_column_label_the_header_would_read_as_the_key():
    arr = Array(2, [((0, 0), 1), ((0, 1), 5)])
    labels = DimensionLabels({1: {"id": 0, "*a": 1}})
    with pytest.raises(SchemaMismatch, match=r"^column label '\*a' starts with '\*'"):
        format_delimited(arr, labels)
    # a '*' inside a label is no key marker
    assert format_delimited(arr, DimensionLabels({1: {"id": 0, "a*": 1}})) == "id,a*\n1,5\n"
