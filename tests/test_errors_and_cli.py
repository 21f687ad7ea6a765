"""Exception hierarchy contracts and the evaluation CLI."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_rtad_error(self):
        exception_types = [
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
        ]
        for exc in exception_types:
            assert issubclass(exc, errors.RtadError), exc

    def test_layer_bases(self):
        assert issubclass(errors.PacketDecodeError, errors.TraceError)
        assert issubclass(errors.FrameSyncError, errors.TraceError)
        assert issubclass(errors.MapperConfigError, errors.IgmError)
        assert issubclass(errors.IllegalInstructionError, errors.GpuError)
        assert issubclass(errors.TrimmingError, errors.GpuError)
        assert issubclass(errors.FifoOverflowError, errors.McmError)

    def test_one_catch_at_the_soc_boundary(self):
        """Any subsystem failure is catchable as RtadError."""
        from repro.igm.address_mapper import AddressMapper

        with pytest.raises(errors.RtadError):
            AddressMapper(capacity=0)

        from repro.miaow.assembler import assemble

        with pytest.raises(errors.RtadError):
            assemble("nonsense_op v0\ns_endpgm")


class TestEvalCli:
    def test_unknown_experiment_rejected(self, capsys):
        from repro.eval.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure9"])
        assert "unknown experiments" in capsys.readouterr().err

    def test_fig7_runs(self, capsys):
        from repro.eval.__main__ import main

        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "[fig7:" in out

    def test_fig6_runs(self, capsys):
        from repro.eval.__main__ import main

        assert main(["fig6"]) == 0
        assert "geomean" in capsys.readouterr().out

    def test_fig8_subset_args(self, capsys):
        from repro.eval.__main__ import main

        code = main(
            ["fig8", "--trials", "1", "--benchmarks", "403.gcc"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "403.gcc" in out

    @pytest.mark.parametrize(
        "argv",
        (
            ["parity", "recovery", "--json"],  # two documents
            ["fig7", "--json"],  # no JSON form
            ["--json"],  # every experiment
        ),
    )
    def test_json_needs_exactly_one_json_experiment(self, capsys, argv):
        from repro.eval.__main__ import main

        with pytest.raises(SystemExit):
            main(argv)
        assert "--json" in capsys.readouterr().err
