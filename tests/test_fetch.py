import json
import os
import subprocess
import sys
import time

import pytest

import ledgergraph
from ledgergraph.fetch import (
    BackoffPolicy,
    FetchError,
    FetchJob,
    RetryingClient,
    fetch_transactions,
    policy_from_env,
    resolve_endpoint,
)
from ledgergraph.cli import main
from ledgergraph.records import TransactionRecord, write_dump

from fixture_server import (
    FixtureServer, KeptAliveServer, OneShotServer, block_responder, flaky, http11,
    interval_responder,
)

DAY = 86_400
T0 = 1_598_918_400  # 2020-09-01T00:00:00Z


def ripple_tx(i, when, kind="Payment"):
    return {
        "hash": f"H{i:05d}",
        "date": when,
        "tx": {"TransactionType": kind, "Account": f"r{i % 37}", "Destination": f"r{(i * 7) % 41}"},
    }


def ripple_job(url, workers=1, **kw):
    return FetchJob(ledger="ripple", start=T0, end=T0 + DAY, source=url, workers=workers, **kw)


class TestPagination:
    def test_250_records_take_three_requests(self):
        txs = [ripple_tx(i, T0 + i) for i in range(250)]
        with FixtureServer(interval_responder(txs)) as server:
            result = fetch_transactions(ripple_job(server.url))
            assert len(result.records) == 250
            assert len(server.requests) == 3
            limits = [q["limit"] for _, q in server.requests]
            assert limits == ["100", "100", "100"]

    def test_zero_records_take_one_request(self):
        with FixtureServer(interval_responder([])) as server:
            result = fetch_transactions(ripple_job(server.url))
            assert result.records == []
            assert len(server.requests) == 1

    def test_exactly_one_page_takes_confirming_request(self):
        txs = [ripple_tx(i, T0 + i) for i in range(100)]
        with FixtureServer(interval_responder(txs)) as server:
            result = fetch_transactions(ripple_job(server.url))
            assert len(result.records) == 100
            assert len(server.requests) == 2


class TestBackoff:
    def test_429_once_then_success(self):
        txs = [ripple_tx(i, T0 + i) for i in range(3)]
        pauses = []
        with FixtureServer(flaky(interval_responder(txs), fail_first=1)) as server:
            result = fetch_transactions(ripple_job(server.url), sleep=pauses.append)
            assert len(result.records) == 3
        assert pauses == [5.0]

    def test_fetch_logs_retries_and_pauses_of_all_fetchers(self, caplog):
        # two fetchers share the two 429s; a fetch that fails logs its line too
        txs = [ripple_tx(i, T0 + i) for i in range(3)]
        with caplog.at_level("INFO", logger="ledgergraph"):
            with FixtureServer(flaky(interval_responder(txs), fail_first=2)) as server:
                result = fetch_transactions(ripple_job(server.url, workers=2),
                                            policy=BackoffPolicy(factor=1.0), sleep=lambda s: None)
            assert len(result.records) == 3
            with FixtureServer(flaky(interval_responder(txs), fail_first=9)) as server:
                with pytest.raises(FetchError):
                    fetch_transactions(ripple_job(server.url), policy=BackoffPolicy(max_retries=1),
                                       sleep=lambda s: None)
        assert [r.getMessage() for r in caplog.records if "retries:" in r.getMessage()] == [
            "fetch retries: 2 (10.0s paused)", "fetch retries: 1 (5.0s paused)"]

    def test_cli_fetch_logs_retries_beside_the_dump(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("LEDGERGRAPH_BACKOFF_INITIAL", "0")
        out = tmp_path / "dump.ndjson"
        txs = [ripple_tx(i, T0 + i) for i in range(3)]
        with caplog.at_level("INFO", logger="ledgergraph"):
            with FixtureServer(flaky(interval_responder(txs), fail_first=1)) as server:
                assert main(["fetch", "--ledger", "ripple", "--from", "2020-09-01",
                             "--to", "2020-09-02", "--source", server.url,
                             "--out", str(out)]) == 0
        assert "fetch retries: 1 (0.0s paused)" in caplog.messages
        assert len(out.read_text().splitlines()) == 3

    def test_documented_schedule_doubles_to_cap(self):
        always_429 = lambda path, query: (429, {"error": "slow down"})
        pauses = []
        with FixtureServer(always_429) as server:
            client = RetryingClient(BackoffPolicy(), sleep=pauses.append)
            with pytest.raises(FetchError):
                client.get_json(server.url + "/v2/transactions")
        assert pauses == [5.0, 10.0, 20.0, 40.0, 60.0, 60.0, 60.0, 60.0]

    def test_pause_resets_after_success(self):
        txs = [ripple_tx(i, T0 + i) for i in range(150)]
        # fail the first request of each page: 429, 200, 429, 200
        state = {"next_ok": False}

        def responder(path, query):
            state["next_ok"] = not state["next_ok"]
            if not state["next_ok"]:
                return interval_responder(txs)(path, query)
            return 429, {}

        pauses = []
        with FixtureServer(responder) as server:
            result = fetch_transactions(ripple_job(server.url), sleep=pauses.append)
            assert len(result.records) == 150
        assert pauses == [5.0, 5.0]

    def test_policy_env_overrides(self):
        policy = policy_from_env({"LEDGERGRAPH_BACKOFF_INITIAL": "0.5",
                                  "LEDGERGRAPH_MAX_RETRIES": "2"})
        assert policy == BackoffPolicy(initial=0.5, factor=2.0, cap=60.0, max_retries=2)
        # the small schedule the benchmark sets, and a zero pause, stay valid
        assert policy_from_env({"LEDGERGRAPH_BACKOFF_INITIAL": "0.01",
                                "LEDGERGRAPH_BACKOFF_CAP": "0.04"}) == BackoffPolicy(0.01, cap=0.04)
        assert policy_from_env({"LEDGERGRAPH_BACKOFF_INITIAL": "0"}).initial == 0.0

    @pytest.mark.parametrize("name", ["initial", "factor", "cap", "max_retries"])
    @pytest.mark.parametrize("value", [-1, float("nan"), float("inf")])
    def test_policy_rejects_negative_and_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=rf"^backoff {name} must be finite and >= 0, got "):
            BackoffPolicy(**{name: value})

    @pytest.mark.parametrize("var", ["LEDGERGRAPH_BACKOFF_INITIAL", "LEDGERGRAPH_BACKOFF_FACTOR",
                                     "LEDGERGRAPH_BACKOFF_CAP", "LEDGERGRAPH_MAX_RETRIES"])
    @pytest.mark.parametrize("value", ["abc", "-1", "nan", ""])
    def test_policy_env_error_names_the_variable(self, var, value):
        kind = "an integer" if var == "LEDGERGRAPH_MAX_RETRIES" else "a finite number"
        with pytest.raises(ValueError, match=rf"^{var} must be {kind} >= 0, got '{value}'$"):
            policy_from_env({var: value})

    @pytest.mark.parametrize("var", ["LEDGERGRAPH_BACKOFF_INITIAL", "LEDGERGRAPH_BACKOFF_FACTOR",
                                     "LEDGERGRAPH_BACKOFF_CAP", "LEDGERGRAPH_MAX_RETRIES"])
    @pytest.mark.parametrize("value", ["abc", "-1", "nan"])
    def test_cli_fetch_bad_backoff_setting_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                          var, value):
        # before, "abc" was a traceback, and -1 or nan crashed in time.sleep
        # at the first 429, after the requests before it
        monkeypatch.setenv(var, value)
        out = tmp_path / "dump.ndjson"
        with FixtureServer(interval_responder([])) as server:
            code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01",
                         "--to", "2020-09-02", "--source", server.url, "--out", str(out)])
            assert server.requests == []  # no request was made
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.startswith(f"ledgergraph fetch: {var} must be ")

    def test_exhausted_retries_identify_range(self):
        always_429 = lambda path, query: (429, {})
        with FixtureServer(always_429) as server:
            with pytest.raises(FetchError) as exc:
                fetch_transactions(
                    ripple_job(server.url),
                    policy=BackoffPolicy(max_retries=1),
                    sleep=lambda s: None,
                )
        assert exc.value.failed_ranges
        assert "offset 0" in exc.value.failed_ranges[0]


class TestTransientServerErrors:
    @pytest.mark.parametrize("status", [502, 503, 504])
    def test_one_5xx_then_success(self, status):
        txs = [ripple_tx(i, T0 + i) for i in range(3)]
        pauses = []
        with FixtureServer(flaky(interval_responder(txs), 1, status)) as server:
            result = fetch_transactions(ripple_job(server.url), sleep=pauses.append)
        assert len(result.records) == 3
        assert pauses == [5.0]

    @pytest.mark.parametrize(
        "status, retry_after, pause",
        [(503, "3", 3.0), (429, "3", 3.0), (503, "1", 2.0), (503, "90", 10.0),
         (503, "Wed, 21 Oct 2015 07:28:00 GMT", 2.0),
         # Latin-1 "²" and "³" pass str.isdigit but are no delta-seconds
         (503, "\xb2", 2.0), (429, "\xb3", 2.0)],
    )
    def test_retry_after_seconds_lengthen_the_pause(self, status, retry_after, pause):
        txs = [ripple_tx(i, T0 + i) for i in range(3)]
        serve = flaky(interval_responder(txs), 1, status, {"Retry-After": retry_after})
        pauses = []
        with FixtureServer(serve) as server:
            result = fetch_transactions(
                ripple_job(server.url), policy=BackoffPolicy(initial=2.0, cap=10.0),
                sleep=pauses.append,
            )
        assert len(result.records) == 3
        assert pauses == [pause]

    def test_endless_503_exhausts_retries_and_names_range(self):
        always_503 = lambda path, query: (503, {})
        pauses = []
        with FixtureServer(always_503) as server:
            with pytest.raises(FetchError) as exc:
                fetch_transactions(
                    ripple_job(server.url), policy=BackoffPolicy(max_retries=2),
                    sleep=pauses.append,
                )
        assert pauses == [5.0, 10.0]
        assert "page offset 0: " in exc.value.failed_ranges[0]
        assert "HTTP 503 after 2 retries" in exc.value.failed_ranges[0]

    def test_500_stays_fatal(self):
        pauses = []
        with FixtureServer(lambda path, query: (500, {})) as server:
            client = RetryingClient(BackoffPolicy(), sleep=pauses.append)
            with pytest.raises(FetchError, match="HTTP 500"):
                client.get_json(server.url + "/v2/transactions")
        assert pauses == []


class TestIntervalFailures:
    def test_failing_speculative_page_does_not_fail_complete_fetch(self):
        # all 50 records arrive on page 0; the second worker's speculative
        # page at offset 100 fails, but nothing lies there
        txs = [ripple_tx(i, T0 + i) for i in range(50)]
        serve = interval_responder(txs)

        def responder(path, query):
            if int(query["offset"]) >= 100:
                return 500, {"error": "boom"}
            time.sleep(0.2)  # let the speculative request fail first
            return serve(path, query)

        with FixtureServer(responder) as server:
            result = fetch_transactions(ripple_job(server.url, workers=2))
            offsets = sorted(int(q["offset"]) for _, q in server.requests)
        assert len(result.records) == 50
        assert offsets == [0, 100]

    def test_mid_window_failure_names_rest_of_window(self):
        txs = [ripple_tx(i, T0 + i) for i in range(250)]
        serve = interval_responder(txs)

        def responder(path, query):
            if query["offset"] == "100":
                return 500, {"error": "boom"}
            return serve(path, query)

        with FixtureServer(responder) as server:
            with pytest.raises(FetchError) as exc:
                fetch_transactions(ripple_job(server.url))
        assert str(exc.value) == "1 page(s) failed"
        ranges = exc.value.failed_ranges
        assert len(ranges) == 2
        assert "page offset 100: " in ranges[0]
        assert "page offsets from 200 on" in ranges[1]
        assert len(exc.value.partial.records) == 100

    def test_rounds_make_a_failed_fetch_deterministic(self, monkeypatch):
        # the slow failure at offset 100 cannot let the other workers run
        # ahead: one round of three pages is requested, then the fetch stops
        txs = [ripple_tx(i, T0 + i) for i in range(450)]
        serve = interval_responder(txs)

        def responder(path, query):
            if query["offset"] == "100":
                time.sleep(0.2)
                return 500, {"error": "boom"}
            return serve(path, query)

        made = []

        class CountedClient(RetryingClient):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr("ledgergraph.fetch.RetryingClient", CountedClient)
        with FixtureServer(responder) as server:
            with pytest.raises(FetchError) as exc:
                fetch_transactions(ripple_job(server.url, workers=3))
            offsets = sorted(int(q["offset"]) for _, q in server.requests)
        assert offsets == [0, 100, 200]
        assert str(exc.value) == "1 page(s) failed"
        ranges = exc.value.failed_ranges
        assert len(ranges) == 2
        assert "page offset 100: " in ranges[0]
        assert ranges[1].endswith("page offsets from 300 on: not requested")
        stamps = sorted(r.timestamp - T0 for r in exc.value.partial.records)
        assert stamps == [*range(0, 100), *range(200, 300)]
        assert len(made) == 3


class TestIntervalSemantics:
    def test_out_of_window_records_dropped(self):
        txs = [ripple_tx(1, T0 - 5), ripple_tx(2, T0), ripple_tx(3, T0 + DAY - 1),
               ripple_tx(4, T0 + DAY)]
        with FixtureServer(interval_responder(txs)) as server:
            result = fetch_transactions(ripple_job(server.url))
        stamps = sorted(r.timestamp for r in result.records)
        assert stamps == [T0, T0 + DAY - 1]

    def test_duplicate_hashes_across_pages_collapse(self):
        txs = [ripple_tx(i, T0 + i) for i in range(120)]
        txs.insert(100, txs[99])  # same hash straddles the page boundary
        with FixtureServer(interval_responder(txs)) as server:
            result = fetch_transactions(ripple_job(server.url))
        assert len(result.records) == 120

    def test_malformed_payload_skipped_and_counted(self):
        txs = [ripple_tx(1, T0 + 1), {"hash": "HBAD", "date": T0 + 2, "tx": {}},
               ripple_tx(3, T0 + 3)]
        with FixtureServer(interval_responder(txs)) as server:
            result = fetch_transactions(ripple_job(server.url))
        assert len(result.records) == 2
        assert result.skipped_payloads == 1

    @pytest.mark.parametrize("date", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    def test_non_finite_date_skipped_and_counted(self, date):
        txs = [ripple_tx(1, T0 + 1), ripple_tx(2, date), ripple_tx(3, T0 + 3)]
        with FixtureServer(interval_responder(txs)) as server:
            result = fetch_transactions(ripple_job(server.url))
        assert sorted(r.timestamp for r in result.records) == [T0 + 1, T0 + 3]
        assert result.skipped_payloads == 1

    def test_hashless_duplicates_fall_back_to_content_key(self):
        tx = ripple_tx(1, T0 + 1)
        del tx["hash"]
        with FixtureServer(interval_responder([tx, dict(tx)])) as server:
            result = fetch_transactions(ripple_job(server.url))
        assert len(result.records) == 1

    def test_non_payment_kinds_survive_normalization(self):
        txs = [ripple_tx(1, T0 + 1, kind="AccountSet")]
        with FixtureServer(interval_responder(txs)) as server:
            result = fetch_transactions(ripple_job(server.url))
        assert result.records[0].tx_kind == "AccountSet"

    def test_worker_count_preserves_record_multiset(self):
        txs = [ripple_tx(i, T0 + i) for i in range(430)]
        with FixtureServer(interval_responder(txs)) as server:
            one = fetch_transactions(ripple_job(server.url, workers=1))
        with FixtureServer(interval_responder(txs)) as server:
            four = fetch_transactions(ripple_job(server.url, workers=4))
        assert sorted(one.records, key=repr) == sorted(four.records, key=repr)


def eth_tx(i, when):
    return {"hash": f"0xh{i:05d}", "from": f"0xs{i % 23}", "to": f"0xr{(i * 3) % 29}",
            "timeStamp": str(when)}


def make_blocks(start_time, spacing, txs_per_block, count, tx_fn=eth_tx):
    blocks = []
    serial = 0
    for b in range(count):
        when = start_time + b * spacing
        txs = [tx_fn(serial + j, when + j) for j in range(txs_per_block)]
        serial += txs_per_block
        blocks.append((when, txs))
    return blocks


class TestBlockFetch:
    @pytest.mark.parametrize("times, in_window", [
        # block 3 is stamped 10 min before block 2, which is stamped at the
        # end of the window: a search for the end alone stops at block 2
        ([T0 - DAY, T0 + 100, T0 + DAY, T0 + DAY - 600, T0 + 2 * DAY],
         [T0 + 100, T0 + DAY - 600]),
        # block 1 is stamped an hour after blocks 2 and 3, which are stamped
        # before the window: a search for the start alone begins at block 4
        ([T0 - DAY, T0 + 3000, T0 - 600, T0 - 300, T0 + 600, T0 + 2 * DAY],
         [T0 + 600, T0 + 3000]),
    ], ids=["early_stamp_after_end", "late_stamp_before_start"])
    def test_skewed_block_times_keep_window_blocks(self, times, in_window):
        blocks = [(when, [eth_tx(i, when)]) for i, when in enumerate(times)]
        with FixtureServer(block_responder(blocks)) as server:
            job = FetchJob(ledger="ethereum", start=T0, end=T0 + DAY, source=server.url)
            result = fetch_transactions(job)
        assert sorted(r.timestamp for r in result.records) == in_window

    def test_binary_search_finds_exact_window(self):
        # 12 blocks spanity 3 days; the middle day holds blocks 4..7
        blocks = make_blocks(T0 - DAY, DAY // 4, 2, 12)
        job = FetchJob(ledger="ethereum", start=T0, end=T0 + DAY, source="URL", workers=1)
        with FixtureServer(block_responder(blocks)) as server:
            job = FetchJob(ledger="ethereum", start=T0, end=T0 + DAY,
                           source=server.url, workers=1)
            result = fetch_transactions(job)
        assert all(T0 <= r.timestamp < T0 + DAY for r in result.records)
        assert len(result.records) == 8  # blocks 4..7, two txs each

    def test_interval_before_chain_is_empty(self):
        blocks = make_blocks(T0, 60, 1, 5)
        with FixtureServer(block_responder(blocks)) as server:
            job = FetchJob(ledger="ethereum", start=T0 - DAY, end=T0 - DAY // 2,
                           source=server.url)
            result = fetch_transactions(job)
        assert result.records == []

    def test_workers_preserve_multiset(self):
        blocks = make_blocks(T0, 60, 3, 40)
        with FixtureServer(block_responder(blocks)) as server:
            one = fetch_transactions(FetchJob(
                ledger="ethereum", start=T0, end=T0 + DAY, source=server.url, workers=1))
        with FixtureServer(block_responder(blocks)) as server:
            eight = fetch_transactions(FetchJob(
                ledger="ethereum", start=T0, end=T0 + DAY, source=server.url, workers=8))
        assert sorted(one.records, key=repr) == sorted(eight.records, key=repr)

    def test_bitcoin_multi_io_schema(self):
        def btc_tx(i, when):
            return {
                "hash": f"btc{i}",
                "time": when,
                "inputs": [{"prev_out": {"addr": f"1in{i % 5}"}},
                           {"prev_out": {"addr": f"1in{(i + 1) % 5}"}}],
                "out": [{"addr": f"1out{i % 7}"}, {"addr": None}],
            }
        blocks = make_blocks(T0, 600, 2, 4, tx_fn=btc_tx)
        with FixtureServer(block_responder(blocks)) as server:
            job = FetchJob(ledger="bitcoin", start=T0, end=T0 + DAY, source=server.url)
            result = fetch_transactions(job)
        assert len(result.records) == 8
        assert all(len(r.senders) == 2 and len(r.recipients) == 1 for r in result.records)

    @pytest.mark.parametrize("ledger, row, key", [
        ("bitcoin", {"hash": "b", "inputs": [{"prev_out": {"addr": "1a"}}],
                     "out": [{"addr": "1b"}]}, "time"),
        ("ethereum", {"hash": "0xe", "from": "0xa", "to": "0xb"}, "timeStamp"),
    ], ids=["bitcoin", "ethereum"])
    def test_null_row_time_falls_back_to_the_block_time(self, ledger, row, key):
        # JSON null is an absent time, not a reason to drop the block's time
        with FixtureServer(block_responder([(T0 + 5, [{**row, key: None}])])) as server:
            result = fetch_transactions(FetchJob(ledger=ledger, start=T0, end=T0 + DAY,
                                                 source=server.url))
        assert [r.timestamp for r in result.records] == [T0 + 5]
        assert result.skipped_payloads == 0

    def test_coinbase_without_senders_skipped(self):
        coinbase = {"hash": "cb", "time": T0 + 5, "inputs": [{}],
                    "out": [{"addr": "1miner"}]}
        blocks = [(T0, [coinbase])]
        with FixtureServer(block_responder(blocks)) as server:
            job = FetchJob(ledger="bitcoin", start=T0, end=T0 + DAY, source=server.url)
            result = fetch_transactions(job)
        assert result.records == []
        assert result.skipped_payloads == 1

    def test_internal_transfers_of_one_call_stay_distinct(self):
        # Etherscan internal rows repeat the parent transaction's hash;
        # traceId tells the transfers of one call apart
        def internal(trace, to, **extra):
            row = {"hash": "0xparent", "from": "0xcontract", "to": to,
                   "timeStamp": T0 + 5, "type": "call", **extra}
            if trace is not None:
                row["traceId"] = trace
            return row
        txs = [internal("0", "0xa"), internal("1", "0xb"), internal("1", "0xb"),
               internal(None, "0xc"), internal(None, "0xc"), internal(None, "0xd")]
        with FixtureServer(block_responder([(T0, txs)])) as server:
            job = FetchJob(ledger="ethereum_internal", start=T0, end=T0 + DAY,
                           source=server.url)
            result = fetch_transactions(job)
        # the repeated traceId row collapses; rows without traceId dedup by content
        assert sorted(r.recipients[0] for r in result.records) == ["0xa", "0xb", "0xc", "0xd"]


_ABSENT = object()


@pytest.mark.parametrize("sender", ["", 5, _ABSENT], ids=["empty", "number", "missing"])
@pytest.mark.parametrize("ledger", ["ripple", "ethereum"])
def test_row_with_a_bad_sender_is_skipped_and_counted(ledger, sender):
    # the Ripple `Account` or Etherscan `from`: TransactionRecord rejects it
    if ledger == "ripple":
        rows = [ripple_tx(i, T0 + i) for i in range(3)]
        row, key, serve = rows[1]["tx"], "Account", interval_responder(rows)
    else:
        rows = [eth_tx(i, T0 + i) for i in range(3)]
        row, key, serve = rows[1], "from", block_responder([(T0, rows)])
    if sender is _ABSENT:
        del row[key]
    else:
        row[key] = sender
    with FixtureServer(serve) as server:
        result = fetch_transactions(FetchJob(ledger=ledger, start=T0, end=T0 + DAY,
                                             source=server.url))
    assert sorted(r.timestamp for r in result.records) == [T0, T0 + 2]
    assert result.skipped_payloads == 1


class TestClientsPerFetch:
    """Each of the `workers` fetchers uses one client for the whole fetch."""

    @pytest.fixture
    def clients(self, monkeypatch):
        made, closed = [], []

        class CountedClient(RetryingClient):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr("ledgergraph.fetch.RetryingClient", CountedClient)
        return made, closed

    def block_fetch(self, serve):
        # one day of blocks 15 min apart, searched with 2 h of padding:
        # blocks 0..103 in 13 chunks of 8
        with FixtureServer(serve) as server:
            return fetch_transactions(FetchJob(ledger="ethereum", start=T0, end=T0 + DAY,
                                               source=server.url, workers=2))

    def test_block_fetch_makes_one_client_per_worker(self, clients):
        result = self.block_fetch(block_responder(make_blocks(T0, DAY // 96, 2, 120)))
        assert len(result.records) == 192
        made, closed = clients
        assert len(made) == 2 and closed == made

    def test_failed_block_search_closes_every_client(self, clients):
        serve = block_responder(make_blocks(T0, DAY // 96, 2, 120))
        with pytest.raises(FetchError, match="block search failed"):
            self.block_fetch(lambda p, q: (500, {}) if p == "/api/latest" else serve(p, q))
        made, closed = clients
        assert len(made) == 2 and closed == made

    def test_failed_chunks_keep_their_names_and_order(self, clients):
        serve = block_responder(make_blocks(T0, DAY // 96, 2, 120))
        failing = {"/api/block/17/txs", "/api/block/24/txs"}  # chunks 2 and 3, one per fetcher
        with pytest.raises(FetchError) as exc:
            self.block_fetch(lambda p, q: (500, {}) if p in failing else serve(p, q))
        assert str(exc.value) == "2 block range(s) failed"
        assert [r.split(":")[0] for r in exc.value.failed_ranges] == [
            "ethereum blocks [16, 24)", "ethereum blocks [24, 32)"]
        assert len(exc.value.partial.records) == 192 - 2 * 16
        made, closed = clients
        assert len(made) == 2 and closed == made

    def test_ripple_fetch_makes_one_client_per_worker(self, clients):
        txs = [ripple_tx(i, T0 + i) for i in range(450)]
        with FixtureServer(interval_responder(txs)) as server:
            result = fetch_transactions(ripple_job(server.url, workers=3))
        assert len(result.records) == 450
        made, closed = clients
        assert len(made) == 3 and closed == made


class TestMalformedResponses:
    # one day of blocks 3 h apart: the search reads headers 0, 1, 3, 6, 8
    # and 9, then blocks 0..8 are fetched in the chunks [0, 8) and [8, 9)
    @pytest.mark.parametrize("path, body, failed, why", [
        ("/api/latest", {}, "block search", "'height' = None"),
        ("/api/latest", [1], "block search", "list, not an object"),
        ("/api/latest", {"height": "11"}, "block search", "'height' = '11'"),
        ("/api/block/6/header", {"height": 6}, "block search", "'time' = None"),
        ("/api/block/6/header", {"height": 6, "time": True}, "block search", "'time' = True"),
        ("/api/block/5/txs", {"time": T0, "txs": {"0": {}}}, "blocks [0, 8)", "'txs' = {"),
        ("/api/block/8/txs", [], "blocks [8, 9)", "list, not an object"),
        ("/api/block/8/txs", {"time": T0 + DAY}, "blocks [8, 9)", "'txs' = None"),
    ], ids=["latest_empty", "latest_list", "latest_string", "header_no_time",
            "header_bool_time", "txs_object", "block_list", "block_no_txs"])
    def test_block_response_fails_its_range(self, path, body, failed, why):
        serve = block_responder(make_blocks(T0, DAY // 8, 1, 12))
        with FixtureServer(lambda p, q: (200, body) if p == path else serve(p, q)) as server:
            with pytest.raises(FetchError) as exc:
                fetch_transactions(FetchJob(ledger="ethereum", start=T0, end=T0 + DAY,
                                            source=server.url))
        [reason] = exc.value.failed_ranges
        assert reason.startswith(f"ethereum {failed}" if failed.startswith("blocks")
                                 else f"ethereum [{T0}, {T0 + DAY}) {failed}: ")
        assert why in reason

    @pytest.mark.parametrize("body", [[1], "text", {"transactions": "none"}, {"error": "busy"}],
                             ids=["list", "string", "transactions_string", "no_transactions"])
    def test_ripple_page_fails_its_offset(self, body):
        serve = interval_responder([ripple_tx(i, T0 + i) for i in range(250)])

        def respond(path, query):
            return (200, body) if query["offset"] == "100" else serve(path, query)

        with FixtureServer(respond) as server:
            with pytest.raises(FetchError) as exc:
                fetch_transactions(ripple_job(server.url))
        ranges = exc.value.failed_ranges
        assert "page offset 100: " in ranges[0] and "page offsets from 200 on" in ranges[1]
        assert len(exc.value.partial.records) == 100

    @pytest.mark.parametrize("ledger, key, value", [
        ("bitcoin", "inputs", None), ("bitcoin", "out", None), ("bitcoin", "out", 5),
        ("dogecoin", "inputs", None), ("dogecoin", "outputs", {"address": "Dout"}),
    ], ids=["btc_inputs_null", "btc_out_null", "btc_out_number", "doge_inputs_null",
            "doge_outputs_object"])
    def test_utxo_side_not_a_list_is_skipped_and_counted(self, tmp_path, capsys,
                                                         ledger, key, value):
        ins, outs = ("inputs", "out") if ledger == "bitcoin" else ("inputs", "outputs")

        def utxo_tx(i, when):
            tx = {"hash": f"U{i}", "txid": f"U{i}", "time": when,
                  ins: [{"prev_out": {"addr": f"in{i}"}, "address": f"in{i}"}],
                  outs: [{"addr": f"out{i}", "address": f"out{i}"}]}
            if i == 4:
                tx[key] = value
            return tx

        blocks = make_blocks(T0, 3600, 3, 4, tx_fn=utxo_tx)
        with FixtureServer(block_responder(blocks)) as server:
            result = fetch_transactions(FetchJob(ledger=ledger, start=T0, end=T0 + DAY,
                                                 source=server.url))
            out = tmp_path / "dump.ndjson"
            code = main(["fetch", "--ledger", ledger, "--from", "2020-09-01",
                         "--to", "2020-09-02", "--out", str(out), "--source", server.url])
        assert (len(result.records), result.skipped_payloads) == (11, 1)
        assert code == 0 and len(out.read_text().splitlines()) == 11
        assert capsys.readouterr().out == "11\n"


class TestLocalSource:
    def test_local_dump_filtering(self, tmp_path):
        records = [
            TransactionRecord("ripple", ("rA",), ("rB",), T0 - 1, "Payment"),
            TransactionRecord("ripple", ("rB",), ("rC",), T0 + 10, "Payment"),
            TransactionRecord("ripple", ("rC",), ("rA",), T0 + DAY, "Payment"),
        ]
        path = tmp_path / "dump.ndjson"
        with open(path, "w") as fh:
            write_dump(records, fh)
        job = FetchJob(ledger="ripple", start=T0, end=T0 + DAY, source=str(path))
        result = fetch_transactions(job)
        assert [r.timestamp for r in result.records] == [T0 + 10]

    def test_empty_window(self, tmp_path):
        path = tmp_path / "dump.ndjson"
        with open(path, "w") as fh:
            write_dump([TransactionRecord("ripple", ("rA",), ("rB",), T0, "Payment")], fh)
        job = FetchJob(ledger="ripple", start=T0 + 1, end=T0 + 2, source=str(path))
        assert fetch_transactions(job).records == []

    def test_only_the_job_ledger_is_kept(self, tmp_path, caplog):
        records = [
            TransactionRecord("ripple", ("rA",), ("rB",), T0, "Payment"),
            TransactionRecord("bitcoin", ("1a",), ("1b", "1c"), T0 + 1),
            TransactionRecord("ripple", ("rB",), ("rC",), T0 + 2, "Payment"),
            TransactionRecord("bitcoin", ("1b",), ("1a",), T0 + DAY),  # outside the window
        ]
        path = tmp_path / "mixed.ndjson"
        with open(path, "w") as fh:
            write_dump(records, fh)
        for ledger, kept in (("bitcoin", [records[1]]), ("ripple", records[::2])):
            caplog.clear()
            job = FetchJob(ledger=ledger, start=T0, end=T0 + DAY, source=str(path))
            with caplog.at_level("INFO", logger="ledgergraph"):
                assert fetch_transactions(job).records == kept
            assert caplog.messages == ["2 other-ledger record(s) left out"]


class TestEndpointResolution:
    def test_precedence(self):
        env = {"LEDGERGRAPH_RIPPLE_URL": "http://env", "LEDGERGRAPH_RIPPLE_KEY": "envkey"}
        config = {"ripple": {"url": "http://cfg", "key": "cfgkey"}}
        assert resolve_endpoint("ripple", env=env, config=config) == ("http://env", "envkey")
        assert resolve_endpoint("ripple", env={}, config=config) == ("http://cfg", "cfgkey")
        url, key = resolve_endpoint("ripple", env={}, config=None)
        assert url.startswith("https://")
        assert key is None
        assert resolve_endpoint("ripple", override="http://x", env=env, config=config)[0] == "http://x"

    def test_job_validation(self):
        with pytest.raises(ValueError):
            FetchJob(ledger="ripple", start=5, end=5, source="x")
        with pytest.raises(ValueError):
            FetchJob(ledger="nope", start=0, end=1, source="x")
        with pytest.raises(ValueError):
            FetchJob(ledger="ripple", start=0, end=1, source="x", workers=0)

    @pytest.mark.parametrize("url, why", [
        ("http://127.0.0.1:99999", ": Port out of range 0-65535"),
        ("http://127.0.0.1:abc", ": Port could not be cast to integer value as 'abc'"),
        ("http://127.0.0.1:0", ": port 0 cannot be connected to"),
        ("http:///x", " names no host"),
        ("HTTPS://", " names no host"),
        ("http://127.0.0.1:8080/?net=main", " carries a query or a fragment"),
        ("http://127.0.0.1:8080/api#frag", " carries a query or a fragment"),
    ], ids=["port-out-of-range", "port-not-a-number", "port-zero", "no-host", "empty",
            "query", "fragment"])
    def test_job_rejects_a_malformed_explorer_url(self, url, why):
        with pytest.raises(ValueError) as raised:
            FetchJob(ledger="ripple", start=0, end=1, source=url)
        assert str(raised.value) == f"explorer URL {url!r}{why}"


# a Ripple page of three transactions in the window, and a response serving it
_PAGE = json.dumps({"transactions": [ripple_tx(i, T0 + i) for i in range(3)]}).encode()
_PAGE_RESPONSE = http11(200, json.loads(_PAGE))


class TestKeptAliveTransport:
    def test_connection_closed_while_idle_is_resent_at_once(self):
        txs = [ripple_tx(i, T0 + i) for i in range(250)]
        serve = interval_responder(txs)
        pauses = []
        with OneShotServer(lambda path, query: http11(*serve(path, query))) as server:
            result = fetch_transactions(ripple_job(server.url), sleep=pauses.append)
            assert len(server.requests) == 3
        assert len(result.records) == 250
        assert pauses == []

    def test_truncated_body_is_retried_after_a_pause(self):
        txs = [ripple_tx(i, T0 + i) for i in range(3)]
        serve = interval_responder(txs)
        answered = []

        def render(path, query):
            answered.append(path)
            return http11(*serve(path, query), declared_length=10_000 if len(answered) == 1 else None)

        pauses = []
        with OneShotServer(render) as server:
            result = fetch_transactions(ripple_job(server.url), sleep=pauses.append)
        assert len(result.records) == 3
        assert pauses == [5.0]

    def test_persistent_truncation_fails_the_range_and_fetch_exits_two(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LEDGERGRAPH_BACKOFF_INITIAL", "0.01")
        monkeypatch.setenv("LEDGERGRAPH_MAX_RETRIES", "1")
        truncated = lambda path, query: http11(200, {"transactions": []}, declared_length=10_000)
        with OneShotServer(truncated) as server:
            code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01",
                         "--to", "2020-09-02", "--source", server.url,
                         "--out", str(tmp_path / "dump.ndjson")])
            assert len(server.requests) == 2
        assert code == 2
        err = capsys.readouterr().err
        assert "page offset 0: " in err and "unreachable after 1 retries" in err

    def test_redirect_fails_its_range(self):
        moved = lambda path, query: (302, {}, {"Location": "/elsewhere"})
        with FixtureServer(moved) as server:
            client = RetryingClient(BackoffPolicy(), sleep=lambda s: None)
            with pytest.raises(FetchError, match="returned HTTP 302"):
                client.get_json(server.url + "/v2/transactions")
            client.close()
            assert [path for path, _ in server.requests] == ["/v2/transactions"]

    def test_chunked_body_with_extension_and_trailer_keeps_the_connection(self):
        chunks = b"".join(b"%x;name=value\r\n%s\r\n" % (len(part), part)
                          for part in (_PAGE[:7], _PAGE[7:]))
        raw = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunks
               + b"0\r\nX-Checksum: none\r\n\r\n")
        pauses = []
        with KeptAliveServer(lambda path, query: raw) as server:
            client = RetryingClient(BackoffPolicy(), sleep=pauses.append)
            pages = [client.get_json(server.url + "/v2/transactions") for _ in range(2)]
            client.close()
            assert server.connections == 1
        assert pages == [json.loads(_PAGE)] * 2
        assert pauses == []

    def test_body_without_a_length_ends_when_the_server_closes(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + _PAGE
        pauses = []
        with OneShotServer(lambda path, query: raw) as server:
            result = fetch_transactions(ripple_job(server.url), sleep=pauses.append)
        assert len(result.records) == 3
        assert pauses == []

    @pytest.mark.parametrize("head, connections", [
        (b"HTTP/1.1 200 OK\r\nConnection: close", 2),
        (b"HTTP/1.0 200 OK", 2),
        (b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive", 1),
        (b"HTTP/1.1 200 OK", 1),
    ], ids=["close", "1.0", "1.0-keep-alive", "1.1"])
    def test_second_request_opens_a_new_connection_only_after_a_close(self, head, connections):
        # the server never closes, so a connection the client should have
        # dropped would carry the second request
        raw = head + b"\r\nContent-Length: %d\r\n\r\n%s" % (len(_PAGE), _PAGE)
        pauses = []
        with KeptAliveServer(lambda path, query: raw) as server:
            client = RetryingClient(BackoffPolicy(), sleep=pauses.append)
            for _ in range(2):
                assert client.get_json(server.url + "/v2/transactions") == json.loads(_PAGE)
            client.close()
            assert server.connections == connections
            assert len(server.requests) == 2
        assert pauses == []

    def test_bodiless_and_interim_responses_keep_the_connection(self):
        # a 204 has no body; an interim 103 comes before the real response
        answers = iter([b"HTTP/1.1 204 No Content\r\n\r\n",
                        b"HTTP/1.1 103 Early Hints\r\nLink: </v2>\r\n\r\n" + _PAGE_RESPONSE])
        with KeptAliveServer(lambda path, query: next(answers)) as server:
            client = RetryingClient(BackoffPolicy(), sleep=lambda s: None)
            with pytest.raises(FetchError, match="returned HTTP 204"):
                client.get_json(server.url + "/v2/transactions")
            assert client.get_json(server.url + "/v2/transactions") == json.loads(_PAGE)
            client.close()
            assert server.connections == 1

    def test_lower_case_retry_after_lengthens_the_pause(self):
        answers = iter([b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 3\r\n"
                        b"Content-Length: 0\r\n\r\n", _PAGE_RESPONSE])
        pauses = []
        with KeptAliveServer(lambda path, query: next(answers)) as server:
            result = fetch_transactions(ripple_job(server.url),
                                        policy=BackoffPolicy(initial=2.0, cap=10.0),
                                        sleep=pauses.append)
            assert server.connections == 1
        assert len(result.records) == 3
        assert pauses == [3.0]

    @pytest.mark.parametrize("first, pauses", [
        (b"", [5.0]),  # on a new connection, no answer is no idle close
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n40\r\n{\"transactions\": [", [5.0]),
        (b"HTTP/1.1 2OO OK\r\nContent-Length: 2\r\n\r\n{}", [5.0]),
        (b"ICY 200 OK\r\nContent-Length: 2\r\n\r\n{}", [5.0]),
        (b"HTTP/1.1 200 OK\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n{}", [5.0]),
        (b"HTTP/1.1 200 OK\r\nX-Pad: " + b"1" * 65_536 + b"\r\n\r\n{}", [5.0]),
        (b"HTTP/1.1 200 OK\r\n" + b"X-Pad: 1\r\n" * 99 + b"Content-Length: %d\r\n\r\n%s"
         % (len(_PAGE), _PAGE), []),
        (b"HTTP/1.1 200 OK\r\nContent-Length: \xb2\r\n\r\n{}", [5.0]),
    ], ids=["no-response", "truncated-chunk", "malformed-status", "not-http", "101-headers",
            "line-over-64KiB", "100-headers", "latin1-digit-length"])
    def test_malformed_response_takes_one_pause_then_the_retry_succeeds(self, first, pauses):
        answers = iter([first, _PAGE_RESPONSE])
        taken = []
        with OneShotServer(lambda path, query: next(answers)) as server:
            result = fetch_transactions(ripple_job(server.url), sleep=taken.append)
        assert len(result.records) == 3
        assert taken == pauses

    def test_latin1_digit_content_length_is_malformed(self):
        # "²" passes str.isdigit, so it used to reach int() and fail there
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: \xb2\r\n\r\n{}"
        with OneShotServer(lambda path, query: raw) as server:
            with pytest.raises(FetchError) as exc:
                fetch_transactions(ripple_job(server.url), policy=BackoffPolicy(max_retries=0),
                                   sleep=lambda s: None)
        assert "malformed Content-Length '\xb2'" in exc.value.failed_ranges[0]

    def test_https_to_a_plain_http_server_fails_the_handshake_and_the_range(self):
        pauses = []
        with FixtureServer(interval_responder([])) as server:
            with pytest.raises(FetchError) as exc:
                fetch_transactions(ripple_job(server.url.replace("http://", "https://")),
                                   policy=BackoffPolicy(max_retries=1), sleep=pauses.append)
        assert pauses == [5.0]
        assert "page offset 0: " in exc.value.failed_ranges[0]
        assert "unreachable after 1 retries" in exc.value.failed_ranges[0]
        assert "SSL" in exc.value.failed_ranges[0]


def _python_env() -> dict:
    src = os.path.dirname(os.path.dirname(ledgergraph.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_only_fetching_imports_requests(tmp_path):
    # importing the CLI loads no HTTP client and no numpy; an http:// fetch
    # loads neither numpy nor http.client, its email header parser or ssl,
    # and an https:// one loads ssl
    code = ("import sys, ledgergraph.cli, ledgergraph; ledgergraph.FetchJob; "
            "loaded = {'requests', 'http.client', 'ssl', 'numpy'} & set(sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=_python_env(), check=True)
    fetch = ("import sys; from ledgergraph.cli import main; code = main(sys.argv[1:]); "
             "loaded = {'requests', 'numpy', 'http.client', 'email.parser', 'ssl'} "
             "& set(sys.modules); assert not loaded, loaded; sys.exit(code)")
    tls = ("import sys; from ledgergraph.cli import main; code = main(sys.argv[1:]); "
           "assert 'ssl' in sys.modules; sys.exit(code)")
    out = tmp_path / "dump.ndjson"
    argv = ["fetch", "--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02",
            "--out", str(out), "--source"]
    with FixtureServer(interval_responder([ripple_tx(i, T0 + i) for i in range(3)])) as server:
        subprocess.run([sys.executable, "-c", fetch, *argv, server.url],
                       env=_python_env(), check=True)
        assert len(out.read_text().splitlines()) == 3
        # the fixture speaks no TLS, so the handshake fails and the fetch exits 2
        failed = subprocess.run([sys.executable, "-c", tls, *argv,
                                 server.url.replace("http://", "https://")],
                                env={**_python_env(), "LEDGERGRAPH_MAX_RETRIES": "0"},
                                stderr=subprocess.DEVNULL)
    assert failed.returncode == 2


def test_commands_that_never_fetch_load_no_http_client(tmp_path):
    # nor, with one worker, a thread pool
    dump, net, report = tmp_path / "dump.ndjson", tmp_path / "g.net", tmp_path / "r.json"
    with open(dump, "w") as fh:
        write_dump([TransactionRecord("ripple", (f"r{i}",), (f"r{(i * 7) % 11}",), T0 + i,
                                      "Payment") for i in range(40)], fh)
    code = ("import sys; from ledgergraph.cli import main\n"
            f"assert main(['build', '--in', {str(dump)!r}, '--out', {str(net)!r}]) == 0\n"
            f"assert main(['analyze', '--in', {str(net)!r}, '--out', {str(report)!r}]) == 0\n"
            f"assert main(['compare', '--in', {str(net)!r}, '--out', {str(report)!r}]) == 0\n"
            f"assert main(['report', '--in', {str(report)!r}]) == 0\n"
            "loaded = {'requests', 'http.client', 'ssl', 'ledgergraph.fetch', "
            "'ledgergraph.explorers', 'concurrent.futures'} & set(sys.modules)\n"
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=_python_env(), check=True,
                   stdout=subprocess.DEVNULL)


def test_build_and_report_load_neither_numpy_nor_fetch(tmp_path):
    dump, net, report = tmp_path / "dump.ndjson", tmp_path / "g.net", tmp_path / "r.json"
    with open(dump, "w") as fh:
        write_dump([TransactionRecord("ripple", (f"r{i}",), (f"r{(i * 7) % 11}",), T0 + i,
                                      "Payment") for i in range(40)], fh)
    code = ("import sys; from ledgergraph.cli import main; code = main(sys.argv[1:]); "
            "loaded = {'numpy', 'ledgergraph.graph', 'ledgergraph.fetch', 'http.client', "
            "'ssl', 'dataclasses', 'inspect', 'datetime'} & set(sys.modules); "
            "assert not loaded, loaded; sys.exit(code)")

    def child(*argv):
        subprocess.run([sys.executable, "-c", code, *argv], env=_python_env(), check=True,
                       stdout=subprocess.DEVNULL)

    child("build", "--in", str(dump), "--out", str(net), "--labels")
    child("build", "--in", str(dump), "--out", str(net))
    assert main(["analyze", "--in", str(net), "--out", str(report), "--hubs", "0"]) == 0
    child("report", "--in", str(report))
