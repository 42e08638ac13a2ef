"""Unit tests for consumer and producer applications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ndn.apps.consumer import Consumer, FetchResult
from repro.ndn.apps.producer import Producer
from repro.ndn.link import Face, FixedDelay, Link
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest
from repro.sim.engine import Engine


def wire_pair(engine, delay=2.0):
    """Consumer directly linked to a producer (no router)."""
    consumer = Consumer(engine, name="c")
    producer = Producer(engine, prefix="/shop", producer_id="shop")
    Link(
        engine,
        consumer.create_face(),
        producer.create_face(),
        FixedDelay(delay),
        np.random.default_rng(0),
    )
    return consumer, producer


class TestProducer:
    def test_publish_within_prefix(self, engine):
        producer = Producer(engine, prefix="/shop")
        data = producer.publish("/shop/item1", private=True)
        assert data.name == Name.parse("/shop/item1")
        assert data.private

    def test_publish_outside_prefix_rejected(self, engine):
        producer = Producer(engine, prefix="/shop")
        with pytest.raises(ValueError):
            producer.publish("/other/item")

    def test_publish_many(self, engine):
        producer = Producer(engine, prefix="/shop")
        objects = producer.publish_many(5)
        assert len(objects) == 5
        assert objects[0].name == Name.parse("/shop/object-0")

    def test_serves_exact_match(self, engine):
        consumer, producer = wire_pair(engine)
        producer.publish("/shop/item1")
        signal = consumer.express_interest("/shop/item1")
        engine.run()
        assert signal.triggered
        result: FetchResult = signal.payload
        assert result.data.name == Name.parse("/shop/item1")
        assert result.rtt == pytest.approx(4.0)

    def test_serves_prefix_match(self, engine):
        consumer, producer = wire_pair(engine)
        producer.auto_generate = False
        producer.publish("/shop/catalog/page1")
        signal = consumer.express_interest("/shop/catalog")
        engine.run()
        assert signal.payload.data.name == Name.parse("/shop/catalog/page1")

    def test_prefix_match_skips_exact_only_content(self, engine):
        consumer, producer = wire_pair(engine)
        producer.auto_generate = False
        producer.publish("/shop/rand/0/deadbeef", exact_match_only=True)
        signal = consumer.express_interest("/shop/rand")
        engine.run()
        assert not signal.triggered
        assert producer.monitor.counter("nonexistent_content") == 1

    def test_auto_generate(self, engine):
        consumer, producer = wire_pair(engine)
        signal = consumer.express_interest("/shop/never-published")
        engine.run()
        assert signal.triggered
        assert producer.monitor.counter("data_served") == 1

    def test_republish_flips_exact_only_without_duplicating(self, engine):
        producer = Producer(engine, prefix="/shop", auto_generate=False)
        producer.publish("/shop/rand/0", exact_match_only=True)
        assert producer.smallest_extension(Name.parse("/shop/rand")) is None
        data = producer.publish("/shop/rand/0")
        assert producer.smallest_extension(Name.parse("/shop/rand")) is data
        producer.publish("/shop/rand/0", exact_match_only=True)
        assert producer.smallest_extension(Name.parse("/shop/rand")) is None
        assert producer._index == [("shop", "rand", "0")]

    def test_publish_after_auto_generated_entry_is_found(self, engine):
        consumer, producer = wire_pair(engine)
        consumer.express_interest("/shop/m")  # synthesized, indexed in place
        engine.run()
        producer.publish("/shop/a/late")
        producer.publish("/shop/z/late")
        producer.publish("/shop/m")  # overwrites the synthesized object
        signal = consumer.express_interest("/shop/a")
        engine.run()
        assert signal.payload.data.name == Name.parse("/shop/a/late")
        assert sorted(producer._index) == sorted(n.components for n in producer.repo)
        assert len(producer._index) == len(producer.repo) == 3

    def test_foreign_interest_ignored(self, engine):
        consumer, producer = wire_pair(engine)
        signal = consumer.express_interest("/not-shop/x", lifetime=50.0)
        engine.run()
        assert not signal.triggered
        assert producer.monitor.counter("foreign_interest") == 1

    def test_processing_delay_applied(self, engine):
        consumer, producer = wire_pair(engine)
        producer.processing_delay = 3.0
        producer.publish("/shop/slow")
        signal = consumer.express_interest("/shop/slow")
        engine.run()
        assert signal.payload.rtt == pytest.approx(7.0)


class TestConsumer:
    def test_rtt_recorded(self, engine):
        consumer, producer = wire_pair(engine, delay=5.0)
        producer.publish("/shop/a")
        consumer.express_interest("/shop/a")
        engine.run()
        assert consumer.rtts == [pytest.approx(10.0)]
        assert consumer.monitor.counter("data_received") == 1

    def test_fetch_coroutine(self, engine):
        consumer, producer = wire_pair(engine)
        producer.publish("/shop/a")
        results = []

        def proc():
            result = yield from consumer.fetch("/shop/a")
            results.append(result)

        engine.spawn(proc())
        engine.run()
        assert results[0] is not None
        assert results[0].data.name == Name.parse("/shop/a")

    def test_fetch_timeout_returns_none(self, engine):
        consumer = Consumer(engine, name="lonely")
        face = consumer.create_face()
        # Attach to a dead-end producer that never answers.
        silent = Producer(engine, prefix="/other", auto_generate=False)
        Link(engine, face, silent.create_face(), FixedDelay(1.0),
             np.random.default_rng(0))
        results = []

        def proc():
            result = yield from consumer.fetch("/shop/a", timeout=50.0)
            results.append(result)

        engine.spawn(proc())
        engine.run()
        assert results == [None]
        assert consumer.monitor.counter("fetch_timeouts") == 1

    def test_multiple_outstanding_same_name(self, engine):
        consumer, producer = wire_pair(engine)
        producer.publish("/shop/a")
        s1 = consumer.express_interest("/shop/a")
        s2 = consumer.express_interest("/shop/a")
        engine.run()
        assert s1.triggered and s2.triggered

    def test_pending_count(self, engine):
        consumer, producer = wire_pair(engine)
        producer.publish("/shop/a")
        consumer.express_interest("/shop/a")
        assert consumer.pending_count == 1
        engine.run()
        assert consumer.pending_count == 0

    def test_unsolicited_data_counted(self, engine):
        consumer, producer = wire_pair(engine)
        producer.face.send_data(Data(name=Name.parse("/shop/spam")))
        engine.run()
        assert consumer.monitor.counter("unsolicited_data") == 1

    def test_consumer_ignores_interests(self, engine):
        consumer, producer = wire_pair(engine)
        consumer.receive_interest(
            Interest(name=Name.parse("/x")), consumer.face
        )
        assert consumer.monitor.counter("unexpected_interest") == 1

    def test_express_without_face_raises(self, engine):
        consumer = Consumer(engine)
        with pytest.raises(RuntimeError):
            consumer.express_interest("/a")
