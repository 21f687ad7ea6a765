"""The TraceFrontend interface: registry, protocol, session lifecycle.

Pins the contracts ``docs/FRONTENDS.md`` documents:

- the registry knows both built-in grammars and rejects unknown names;
- every frontend's driver satisfies the :class:`TraceDriver`
  protocol and the created-disabled session lifecycle — in particular
  the regression that no trace bytes exist before a session starts
  (an eagerly enabled driver leaks the encoder's lazy sync burst into
  the pre-session stream).
"""

import pytest

from repro.errors import SocConfigError
from repro.eval.metrics import demo_events
from repro.frontends import (
    CoreSightFrontend,
    TraceDriver,
    TraceFrontend,
    frontend_names,
    get_frontend,
)
from repro.frontends.etrace import EtraceFrontend

FRONTEND_NAMES = ("coresight", "etrace")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_builtin_frontends_are_registered():
    names = frontend_names()
    for name in FRONTEND_NAMES:
        assert name in names


def test_get_frontend_returns_the_right_types():
    assert isinstance(get_frontend("coresight"), CoreSightFrontend)
    assert isinstance(get_frontend("etrace"), EtraceFrontend)


def test_unknown_frontend_name_is_rejected():
    with pytest.raises(SocConfigError):
        get_frontend("nexus")


def test_rtad_config_validates_frontend_name():
    from repro.soc.rtad import RtadConfig

    assert RtadConfig(frontend="etrace").frontend == "etrace"
    with pytest.raises(SocConfigError):
        RtadConfig(frontend="nexus")


# ----------------------------------------------------------------------
# Protocol conformance + driver lifecycle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", FRONTEND_NAMES)
def test_frontend_and_driver_satisfy_the_protocols(name):
    frontend = get_frontend(name)
    assert isinstance(frontend, TraceFrontend)
    assert frontend.name == name
    driver = frontend.create_driver()
    assert isinstance(driver, TraceDriver)


@pytest.mark.parametrize("name", FRONTEND_NAMES)
def test_driver_is_created_disabled_and_refuses_dataplane_calls(name):
    driver = get_frontend(name).create_driver()
    assert not driver.enabled
    event = demo_events("lstm", 0, 1)[0]
    with pytest.raises(SocConfigError):
        driver.trace(event)
    with pytest.raises(SocConfigError):
        driver.flush()
    with pytest.raises(SocConfigError):
        driver.export_state()


@pytest.mark.parametrize("name", FRONTEND_NAMES)
def test_driver_session_cycle_is_repeatable_and_deterministic(name):
    driver = get_frontend(name).create_driver()
    events = demo_events("lstm", 0, 200)

    driver.enable()
    assert driver.enabled
    first = driver.trace_all(events)
    driver.disable()
    assert not driver.enabled
    driver.enable()
    second = driver.trace_all(events)
    assert first == second
    assert len(first) > 0


@pytest.mark.parametrize("name", FRONTEND_NAMES)
def test_set_context_id_requires_a_stopped_session(name):
    driver = get_frontend(name).create_driver()
    driver.set_context_id(0x42)  # disabled: fine
    driver.enable()
    with pytest.raises(SocConfigError):
        driver.set_context_id(0x43)


@pytest.mark.parametrize("name", FRONTEND_NAMES)
def test_decode_chain_round_trips_through_frontend_factories(name):
    """new_deframer/new_decoder must decode what create_driver emits."""
    frontend = get_frontend(name)
    driver = frontend.create_driver()
    driver.enable()
    events = demo_events("lstm", 3, 500)
    framed = driver.trace_all(events)
    deframer = frontend.new_deframer()
    decoder = frontend.new_decoder()
    decoded = list(decoder.feed(deframer.push(framed)))
    decoded += decoder.finish()
    assert decoded  # at least syncs + branches survived


def test_deframer_reads_a_non_default_source_stream():
    """The frontend's deframer expects the source its driver frames."""
    events = demo_events("lstm", 3, 300)
    payloads = []
    for source_id in (0x1, 0x2):
        frontend = get_frontend("coresight", source_id=source_id)
        driver = frontend.create_driver()
        driver.enable()
        payloads.append(frontend.new_deframer().push(driver.trace_all(events)))
    assert payloads[0] and payloads[1] == payloads[0]


# ----------------------------------------------------------------------
# Satellite regression: no pre-session trace bytes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", FRONTEND_NAMES)
def test_loop_dataplane_driver_starts_disabled(name):
    from repro.igm.address_mapper import AddressMapper
    from repro.igm.vector_encoder import VectorEncoder
    from repro.soc.loop import LoopDataplane

    mapper = AddressMapper()
    mapper.load([0x1000, 0x2000])
    plane = LoopDataplane(
        mapper,
        VectorEncoder(window=4, vocabulary_size=mapper.size + 1),
        lambda vector, when: None,
        frontend=get_frontend(name),
    )
    assert not plane.driver.enabled
    # run() powers it up lazily; the first session's first byte is the
    # sync burst, exactly as in the batched pipeline.
    plane.run(demo_events("lstm", 0, 50))
    assert plane.driver.enabled


@pytest.mark.parametrize("name", FRONTEND_NAMES)
def test_counter_namespaces_are_declared_and_disjoint(name):
    frontend = get_frontend(name)
    for counter in frontend.decoder_counters + frontend.deframer_counters:
        assert counter  # non-empty names
    other = [n for n in FRONTEND_NAMES if n != name][0]
    other_counters = set(
        get_frontend(other).decoder_counters
        + get_frontend(other).deframer_counters
    )
    mine = set(frontend.decoder_counters + frontend.deframer_counters)
    assert not (mine & other_counters)
