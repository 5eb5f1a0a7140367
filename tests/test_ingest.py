from __future__ import annotations

import math
import ssl
import threading
from http.server import ThreadingHTTPServer

import numpy as np
import pytest

from joist import (
    FormatError,
    HeightRangeError,
    IntegrityError,
    ParseError,
    RpcConnectionError,
    RpcEndpoint,
    fetch_block_features,
    read_dataset,
    write_dataset,
    write_features_csv,
)
from joist.features import COLUMNS
from joist.ingest import CSV_HEADER, MAX_PARALLEL

from conftest import (
    BAD_GATEWAY_HEIGHT,
    COINBASE_WITH_INPUT_HEIGHT,
    NEGATIVE_SIZE_HEIGHT,
    RPC_PASS,
    RPC_USER,
    STRING_ERROR_HEIGHT,
    TRUNCATED_HEIGHT,
    TEST_CHAIN_EXPECTED,
    ZERO_SIZE_HEIGHT,
    _RpcHandler,
    make_dataset,
)

_ROWS = [
    (100, 285, 0, 2, 0, 0, 0, 1807),
    (101, 1523, 2, 4, 1, 4, 0, 95321),
    (102, 4820, 1, 4, 0, 0, 3, 41002),
]


# -- CSV format -----------------------------------------------------------

def test_round_trip_is_identity(tmp_path):
    ds = make_dataset(_ROWS)
    file = tmp_path / "ds.csv"
    write_dataset(ds, file)
    assert read_dataset(file) == ds


def test_written_file_is_lf_terminated_ascii_integers(tmp_path):
    path = tmp_path / "ds.csv"
    write_dataset(make_dataset(_ROWS), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "100,285,0,2,0,0,0,1807"
    assert len(lines) == 1 + len(_ROWS)


def test_rows_written_in_height_order(tmp_path):
    ds = make_dataset([_ROWS[2], _ROWS[0], _ROWS[1]])
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    heights = [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
    assert heights == [100, 101, 102]


def test_fractional_times_cannot_be_serialized(tmp_path):
    ds = make_dataset([(1, 1000, 0, 0, 0, 0, 0, 10.5)])
    with pytest.raises(FormatError):
        write_dataset(ds, tmp_path / "bad.csv")


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("height,size\n1,2\n")
    with pytest.raises(FormatError) as excinfo:
        read_dataset(path)
    assert CSV_HEADER in str(excinfo.value)


def test_read_rejects_duplicate_height(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(
        CSV_HEADER + "\n100,285,0,2,0,0,0,1807\n100,285,0,2,0,0,0,1807\n"
    )
    with pytest.raises(IntegrityError, match="height 100"):
        read_dataset(path)


def test_read_rejects_nonpositive_time(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n100,285,0,2,0,0,0,0\n")
    with pytest.raises(IntegrityError):
        read_dataset(path)


def test_read_rejects_non_integer_fields(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n100,285,0,2,0,0,0,1.5\n")
    with pytest.raises(FormatError):
        read_dataset(path)


def test_read_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n100,285,0,2,0,0,0\n")
    with pytest.raises(FormatError, match="8 fields"):
        read_dataset(path)


def test_read_rejects_header_only_file(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n")
    with pytest.raises(IntegrityError):
        read_dataset(path)


def test_read_sorts_unsorted_rows(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(
        CSV_HEADER + "\n102,4820,1,4,0,0,3,41002\n100,285,0,2,0,0,0,1807\n"
    )
    assert read_dataset(path).height.tolist() == [100, 102]


@pytest.mark.parametrize("field", ["1_000", " +5", "+5", "5 ", "\u0665", "0x10"])
def test_read_rejects_lenient_integer_fields(tmp_path, field):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + f"\n100,285,0,2,0,0,0,1807\n101,{field},0,2,0,0,0,1807\n", encoding="utf-8")
    with pytest.raises(FormatError, match="ds.csv:3: "):
        read_dataset(path)


@pytest.mark.parametrize("value", [str(2**63), "99999999999999999999", str(-(2**63) - 1)])
def test_read_rejects_values_outside_int64(tmp_path, value):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + f"\n100,285,0,2,0,0,0,{value}\n")
    with pytest.raises(FormatError, match="ds.csv:2: .*int64"):
        read_dataset(path)


def test_read_accepts_int64_extremes(tmp_path):
    top = 2**63 - 1
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + f"\n{top},{top},{top},{top},{top},{top},{top},{top}\n")
    ds = read_dataset(path)
    assert ds.height.tolist() == [top] and ds.verify_time_us.tolist() == [top]


def test_read_negative_count_is_integrity_error_naming_the_line(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n100,285,0,2,0,0,0,1807\n101,285,0,2,-1,0,0,1807\n")
    with pytest.raises(IntegrityError, match=r"ds.csv:3: n_spend must be >= 0, got -1"):
        read_dataset(path)


@pytest.mark.parametrize(
    "body, error, message",
    [
        # the first line, in file order, whose height already appeared
        ("102,1,0,0,0,0,0,1\n100,1,0,0,0,0,0,1\n100,1,0,0,0,0,0,1\n102,1,0,0,0,0,0,1\n",
         IntegrityError, "ds.csv:4: duplicate height 100 (first on line 3)"),
        # a value fault is named first, even on a later line
        ("100,1,0,0,0,0,0,1\n100,1,0,0,0,0,0,1\n101,1,0,0,-1,0,0,1\n",
         IntegrityError, "ds.csv:4: n_spend must be >= 0"),
        # a duplicate on an earlier line is named before a later format fault
        ("100,1,0,0,0,0,0,1\n100,1,0,0,0,0,0,1\n101,1,0,0,x,0,0,1\n",
         IntegrityError, "ds.csv:3: duplicate height 100 (first on line 2)"),
        ("100,1,0,0,0,0,0,1\n101,1,0,0,x,0,0,1\n100,1,0,0,0,0,0,1\n", FormatError, "ds.csv:3: "),
    ],
    ids=["file-order", "value-fault-first", "before-later-format-fault", "after-earlier-format-fault"],
)
def test_read_duplicate_height_names_its_line(tmp_path, body, error, message):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n" + body)
    with pytest.raises(error) as excinfo:
        read_dataset(path)
    assert message in str(excinfo.value)


def test_read_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\n100,285,0,2,0,0,0,18\xff7\n")
    with pytest.raises(FormatError, match="UTF-8"):
        read_dataset(path)


@pytest.mark.parametrize(
    "body",
    [
        "100,285,0,2,0,0,0,1807\n101,1523,2,4,1,4,0,95321",  # no final LF
        "100,285,0,2,0,0,0,1807\n\n101,1523,2,4,1,4,0,95321\n\n",  # blank lines
        "100,285,0,2,0,0,0,1807\r\n101,1523,2,4,1,4,0,95321\r\n",  # CRLF
        "0100,285,0,2,0,0,0,1807\n101,1523,2,4,1,4,0,95321\n",  # leading zero
    ],
)
def test_read_accepts_other_line_layouts(tmp_path, body):
    path = tmp_path / "ds.csv"
    path.write_bytes((CSV_HEADER + "\n" + body).encode())
    assert read_dataset(path) == make_dataset(_ROWS[:2])


def test_write_features_csv_zero_fills_times(tmp_path):
    path = tmp_path / "features.csv"
    columns = {c: [0, 0] for c in COLUMNS[:-1]} | {"height": [102, 101], "size_bytes": [20, 10]}
    write_features_csv(columns, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "101,10,0,0,0,0,0,0"
    assert lines[2] == "102,20,0,0,0,0,0,0"
    # Zero-filled times keep the file out of the fitting pipeline.
    with pytest.raises(IntegrityError):
        read_dataset(path)


# -- endpoint invariants ----------------------------------------------------

def test_endpoint_invariants():
    with pytest.raises(IntegrityError):
        RpcEndpoint(url="http://x", username="u", password="p", max_parallel=0)


@pytest.mark.parametrize("timeout", [0, -1, math.inf, math.nan])
def test_endpoint_timeout_must_be_finite_and_positive(timeout):
    with pytest.raises(IntegrityError, match=f"^timeout must be finite and > 0, got {timeout}$"):
        RpcEndpoint(url="http://x", username="u", password="p", timeout=timeout)


@pytest.mark.parametrize("max_parallel", [MAX_PARALLEL + 1, 10**9])
def test_endpoint_bounds_parallelism(max_parallel):
    RpcEndpoint(url="http://x", username="u", password="p", max_parallel=MAX_PARALLEL)
    with pytest.raises(IntegrityError, match=f"1..{MAX_PARALLEL}"):
        RpcEndpoint(url="http://x", username="u", password="p", max_parallel=max_parallel)


# -- JSON-RPC fetching -------------------------------------------------------

def _endpoint(url, **kwargs):
    params = dict(url=url, username=RPC_USER, password=RPC_PASS, timeout=10.0)
    params.update(kwargs)
    return RpcEndpoint(**params)


def test_fetch_coinbase_only_block(rpc_server):
    block = fetch_block_features(_endpoint(rpc_server), (100, 100))
    assert list(block) == list(COLUMNS[:-1])
    assert all(col.dtype == np.int64 for col in block.values())
    assert {c: col.tolist() for c, col in block.items()} == {
        "height": [100],
        "size_bytes": [285],
        "n_transparent_in": [0],
        "n_transparent_out": [2],
        "n_spend": [0],
        "n_output": [0],
        "n_joinsplit": [0],
    }


def test_fetch_range_in_order_with_expected_counts(rpc_server):
    blocks = fetch_block_features(_endpoint(rpc_server, max_parallel=3), (100, 102))
    assert blocks["height"].tolist() == [100, 101, 102]
    for i, height in enumerate(blocks["height"].tolist()):
        for field, value in TEST_CHAIN_EXPECTED[height].items():
            assert blocks[field][i] == value, (height, field)


def test_fetch_serial_and_parallel_agree(rpc_server):
    serial = fetch_block_features(_endpoint(rpc_server, max_parallel=1), (100, 102))
    parallel = fetch_block_features(_endpoint(rpc_server, max_parallel=8), (100, 102))
    assert serial.keys() == parallel.keys()
    assert all(np.array_equal(serial[c], parallel[c]) for c in serial)


def test_fetch_block_missing_size_field(rpc_server):
    with pytest.raises(ParseError, match="size"):
        fetch_block_features(_endpoint(rpc_server), (103, 103))


@pytest.mark.parametrize("height, size", [(ZERO_SIZE_HEIGHT, 0), (NEGATIVE_SIZE_HEIGHT, -285)])
def test_fetch_nonpositive_block_size_names_the_block(rpc_server, height, size):
    with pytest.raises(IntegrityError, match=rf"^block {height}: size_bytes must be > 0, got {size}$"):
        fetch_block_features(_endpoint(rpc_server), (height, height))


def test_fetch_coinbase_with_an_input_names_the_block(rpc_server):
    h = COINBASE_WITH_INPUT_HEIGHT
    with pytest.raises(IntegrityError, match=rf"^block {h}: a coinbase transaction has no countable"):
        fetch_block_features(_endpoint(rpc_server), (h, h))


def test_fetch_unknown_height(rpc_server):
    with pytest.raises(HeightRangeError, match="200"):
        fetch_block_features(_endpoint(rpc_server), (200, 201))


def test_fetch_empty_range(rpc_server):
    with pytest.raises(HeightRangeError):
        fetch_block_features(_endpoint(rpc_server), (102, 100))


def test_fetch_bad_credentials(rpc_server):
    endpoint = _endpoint(rpc_server, password="wrong")
    with pytest.raises(RpcConnectionError):
        fetch_block_features(endpoint, (100, 100))


def test_fetch_non_object_rpc_error(rpc_server):
    with pytest.raises(RpcConnectionError, match="malformed RPC error"):
        fetch_block_features(_endpoint(rpc_server), (STRING_ERROR_HEIGHT, STRING_ERROR_HEIGHT))


def test_block_size_beyond_int64_is_a_parse_error():
    from joist.ingest import _block_row

    record = {"size": 2**63, "tx": [{"vin": [{"coinbase": "00"}], "vout": []}]}
    with pytest.raises(ParseError, match="int64"):
        _block_row(record, 7)


def test_fetch_unreachable_node(closed_port_url):
    endpoint = _endpoint(closed_port_url, timeout=2.0)
    with pytest.raises(RpcConnectionError):
        fetch_block_features(endpoint, (100, 100))


@pytest.mark.parametrize(
    "url, message",
    [
        ("file:///etc/hostname", "http:// or https://"),
        ("data:application/json,{}", "http:// or https://"),
        ("ftp://127.0.0.1/", "http:// or https://"),
        ("localhost:8232", "http:// or https://"),
        ("http://127.0.0.1:notaport/", "invalid node URL .*notaport"),
    ],
)
def test_fetch_rejects_unusable_urls(url, message):
    with pytest.raises(RpcConnectionError, match=message):
        fetch_block_features(_endpoint(url), (100, 100))


def test_fetch_truncated_body_is_connection_error(rpc_server):
    with pytest.raises(RpcConnectionError, match="cannot reach node"):
        fetch_block_features(_endpoint(rpc_server), (TRUNCATED_HEIGHT, TRUNCATED_HEIGHT))


def test_fetch_non_json_error_page_names_the_status(rpc_server):
    with pytest.raises(RpcConnectionError, match="non-JSON response .*HTTP 502"):
        fetch_block_features(_endpoint(rpc_server), (BAD_GATEWAY_HEIGHT, BAD_GATEWAY_HEIGHT))


def test_fetch_ignores_credentials_in_the_url(rpc_server):
    url = rpc_server.replace("http://", "http://mallory:guess@")
    assert fetch_block_features(_endpoint(url), (100, 100))["size_bytes"].tolist() == [285]


def _self_signed_cert(tmp_path):
    """PEM files of a self-signed certificate for 127.0.0.1 and its key."""
    pytest.importorskip("cryptography")
    import datetime
    import ipaddress

    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    ski = x509.SubjectKeyIdentifier.from_public_key(key.public_key())
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(days=1))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), False)
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), True)
        .add_extension(ski, False)
        .add_extension(x509.AuthorityKeyIdentifier.from_issuer_subject_key_identifier(ski), False)
        .sign(key, hashes.SHA256())
    )
    cert_path, key_path = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(
        key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
    )
    return cert_path, key_path


@pytest.fixture()
def tls_rpc_server(tmp_path):
    """The node stand-in behind TLS with a self-signed certificate; yields (URL, cert path)."""
    cert_path, key_path = _self_signed_cert(tmp_path)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_path, key_path)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RpcHandler)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"https://127.0.0.1:{server.server_address[1]}", cert_path
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    assert not thread.is_alive()


def test_fetch_https_rejects_untrusted_certificate(tls_rpc_server):
    url, _ = tls_rpc_server
    with pytest.raises(RpcConnectionError, match="CERTIFICATE_VERIFY_FAILED"):
        fetch_block_features(_endpoint(url, timeout=5.0), (100, 100))


def test_fetch_https_trusts_the_default_verify_paths(tls_rpc_server, monkeypatch):
    url, cert_path = tls_rpc_server
    monkeypatch.setenv("SSL_CERT_FILE", str(cert_path))
    assert fetch_block_features(_endpoint(url, timeout=5.0), (100, 100))["size_bytes"].tolist() == [285]


def test_times_beyond_int64_cannot_be_serialized(tmp_path):
    ds = make_dataset([(1, 1000, 0, 0, 0, 0, 0, 2.0**63)])
    with pytest.raises(FormatError, match="int64"):
        write_dataset(ds, tmp_path / "bad.csv")
