"""The Tenant facade: namespaces, quotas, attribution, lifecycle."""

import inspect

import pytest

from repro.errors import (CrossDevice, FileNotFound, InvalidArgument,
                          NoSpace, QuotaExceeded, UnknownTenant)
from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec, recompute_usage
from repro.core.tenant import Tenant
from repro.vfs.blockdev import FaultPlan
from repro.vfs.filesystem import FileSystem

#: the facade's public surface, as callers (the shell, the workloads, the
#: benchmark's span wrapper) use it: name -> signature without annotations
PUBLIC_SIGNATURES = {
    "barrier": "(self)",
    "chmod": "(self, path, mode)",
    "classify": "(self, link_path)",
    "close": "(self, fd)",
    "create": "(self, path, mode=420)",
    "describe_scope": "(self, path='/')",
    "exists": "(self, path, follow=True)",
    "get_query": "(self, path)",
    "glimpse": "(self, query, scope_path='/', consistency='strong')",
    "health": "(self, path=None)",
    "is_semantic": "(self, path)",
    "isdir": "(self, path)",
    "isfile": "(self, path)",
    "islink": "(self, path)",
    "links": "(self, path)",
    "listdir": "(self, path='/')",
    "lseek": "(self, fd, offset, whence=0)",
    "lstat": "(self, path)",
    "make_permanent": "(self, link_path)",
    "makedirs": "(self, path, mode=493)",
    "mkdir": "(self, path, mode=493)",
    "open": "(self, path, mode='r')",
    "prohibited": "(self, path)",
    "quota": "(self)",
    "read": "(self, fd, size=-1)",
    "read_file": "(self, path)",
    "readlink": "(self, path)",
    "recount": "(self)",
    "rename": "(self, old, new)",
    "rmdir": "(self, path)",
    "sact": "(self, link_path)",
    "set_query": "(self, path, query)",
    "smkdir": "(self, path, query)",
    "ssync": "(self, path='/')",
    "stat": "(self, path)",
    "symlink": "(self, target, linkpath)",
    "truncate": "(self, path, size=0)",
    "unlink": "(self, path)",
    "unprohibit": "(self, dir_path, target_text)",
    "unwatch": "(self, path='/')",
    "usage": "(self)",
    "watch": "(self, path='/')",
    "write": "(self, fd, data)",
    "write_file": "(self, path, data, append=False)",
}


@pytest.fixture
def hac():
    return HacFileSystem()


@pytest.fixture
def acme(hac):
    return hac.tenants.create("acme", quota=QuotaSpec(
        max_inodes=20, max_bytes=1000, max_docs=10, weight=2))


@pytest.fixture
def buyco(hac):
    return hac.tenants.create("buyco")


class TestLifecycle:
    def test_create_carves_a_scope_root(self, hac, acme):
        assert acme.root == "/tenants/acme"
        assert hac.isdir("/tenants/acme")
        assert hac.tenants.names() == ["acme"]
        assert "acme" in hac.tenants

    def test_names_are_validated(self, hac):
        for bad in ("", "a/b", "..", "UPPER CASE", "/x"):
            with pytest.raises(InvalidArgument):
                hac.tenants.create(bad)

    def test_duplicate_creation_is_rejected(self, hac, acme):
        with pytest.raises(InvalidArgument):
            hac.tenants.create("acme")

    def test_unknown_tenant_raises(self, hac):
        with pytest.raises(UnknownTenant):
            hac.tenants.get("nobody")

    def test_tenant_of_path_prefix_matches(self, hac, acme):
        of = hac.tenants.tenant_of_path
        assert of("/tenants/acme") == "acme"
        assert of("/tenants/acme/deep/file.txt") == "acme"
        assert of("/tenants/acmecorp/x") is None   # no partial-name match
        assert of("/notes/a.txt") is None
        assert of("/tenants") is None

    def test_empty_manager_leaves_the_world_untouched(self, hac):
        assert not hac.exists("/tenants")
        assert "tenants" not in hac.maintenance.status()
        assert hac.health()["tenants"] == {}


class TestFacadeOps:
    def test_paths_are_rebased_both_ways(self, hac, acme):
        acme.makedirs("/a/b")
        acme.write_file("/a/b/f.txt", b"fingerprint data")
        assert acme.listdir("/a/b") == ["f.txt"]
        assert acme.read_file("/a/b/f.txt") == b"fingerprint data"
        assert hac.isfile("/tenants/acme/a/b/f.txt")
        assert acme.stat("/a/b/f.txt").is_file

    def test_dotdot_cannot_escape_the_root(self, hac, acme, buyco):
        buyco.write_file("/secret.txt", b"other tenant")
        with pytest.raises(FileNotFound):
            acme.read_file("/../buyco/secret.txt")
        # and the lexical collapse lands inside acme, not above it
        acme.write_file("/x.txt", b"mine")
        assert acme.read_file("/a/../x.txt") == b"mine"

    def test_root_removal_is_blocked(self, acme):
        with pytest.raises(InvalidArgument):
            acme.rmdir("/")

    def test_symlinks_rebase_their_text(self, hac, acme):
        acme.write_file("/t.txt", b"target")
        acme.symlink("/t.txt", "/l")
        assert acme.readlink("/l") == "/t.txt"
        assert hac.readlink("/tenants/acme/l") == "/tenants/acme/t.txt"

    def test_relative_symlink_targets_resolve_beside_the_link(self, hac,
                                                              acme):
        acme.makedirs("/x")
        acme.write_file("/x/b.txt", b"beside the link")
        acme.symlink("b.txt", "/x/l")
        assert acme.readlink("/x/l") == "/x/b.txt"
        assert acme.read_file("/x/l") == b"beside the link"
        # ``..`` in a relative target still clamps at the tenant root
        hac.makedirs("/shared")
        hac.write_file("/shared/c.txt", b"host only")
        acme.symlink("../../../shared/c.txt", "/x/up")
        assert hac.readlink("/tenants/acme/x/up") == \
            "/tenants/acme/shared/c.txt"
        with pytest.raises(FileNotFound):
            acme.read_file("/x/up")

    def test_public_methods_keep_their_names_and_signatures(self):
        empty = inspect.Parameter.empty
        found = {}
        for name, fn in inspect.getmembers(Tenant):
            if name.startswith("_"):
                continue
            assert inspect.isfunction(fn), name
            sig = inspect.signature(fn)
            found[name] = str(sig.replace(
                parameters=[p.replace(annotation=empty)
                            for p in sig.parameters.values()],
                return_annotation=empty))
        assert found == PUBLIC_SIGNATURES

    def test_fd_surface_is_scoped(self, acme):
        fd = acme.create_open("/fd.txt") if hasattr(acme, "create_open") \
            else None
        if fd is None:
            acme.create("/fd.txt")
            fd = acme.open("/fd.txt", "w")
        acme.write(fd, b"fingerprint bytes")
        acme.close(fd)
        assert acme.read_file("/fd.txt") == b"fingerprint bytes"


class TestQuotas:
    def test_byte_budget_rejects_before_any_bytes_land(self, hac, acme):
        with pytest.raises(QuotaExceeded) as exc:
            acme.write_file("/big.txt", b"x" * 2000)
        assert exc.value.resource == "bytes"
        assert not hac.exists("/tenants/acme/big.txt")
        assert acme.ledger.usage() == {"inodes": 0, "bytes": 0}

    def test_inode_budget_counts_dirs_and_files(self, hac):
        t = hac.tenants.create("tiny", quota=QuotaSpec(max_inodes=2))
        t.mkdir("/d")
        t.write_file("/d/f.txt", b"ok")
        with pytest.raises(QuotaExceeded):
            t.write_file("/d/g.txt", b"over")
        assert t.ledger.usage()["inodes"] == 2

    def test_rewrites_charge_only_the_delta(self, acme):
        acme.write_file("/f.txt", b"aaaa")
        acme.write_file("/f.txt", b"aa")
        assert acme.ledger.usage() == {"inodes": 1, "bytes": 2}
        acme.write_file("/f.txt", b"aaaaaaaa")
        assert acme.ledger.usage()["bytes"] == 8

    def test_unlink_releases_the_budget(self, acme):
        acme.write_file("/f.txt", b"fingerprint")
        acme.unlink("/f.txt")
        assert acme.ledger.usage() == {"inodes": 0, "bytes": 0}

    def test_doc_budget_gates_new_indexed_files(self, hac):
        t = hac.tenants.create("lib", quota=QuotaSpec(max_docs=2))
        t.write_file("/a.txt", b"fingerprint one")
        t.write_file("/b.txt", b"fingerprint two")
        t.barrier()
        with pytest.raises(QuotaExceeded) as exc:
            t.write_file("/c.txt", b"fingerprint three")
        assert exc.value.resource == "docs"

    def test_recompute_matches_the_charged_ledger(self, hac, acme):
        acme.makedirs("/a/b")
        acme.write_file("/a/b/f.txt", b"fingerprint data")
        acme.write_file("/g.txt", b"more")
        assert recompute_usage(hac.fs, acme.root) == acme.ledger.usage()

    def test_recompute_skips_symlinks_like_the_facade(self, hac, acme):
        acme.write_file("/f.txt", b"data")
        acme.symlink("/f.txt", "/l")
        assert recompute_usage(hac.fs, acme.root) == acme.ledger.usage()

    def test_rename_over_a_file_releases_the_replaced_one(self, acme):
        acme.write_file("/a.txt", b"12345")
        acme.write_file("/b.txt", b"1234567890")
        acme.rename("/a.txt", "/b.txt")
        assert acme.usage() == acme.recount() == {"inodes": 1, "bytes": 5}

    def test_open_for_writing_releases_the_truncated_bytes(self, acme):
        acme.write_file("/f.txt", b"1234567890")
        acme.close(acme.open("/f.txt", "w"))
        assert acme.usage() == acme.recount() == {"inodes": 1, "bytes": 0}

    def test_fd_overwrite_charges_only_the_growth(self, acme):
        acme.write_file("/f.txt", b"1234567890")
        fd = acme.open("/f.txt", "rw")
        acme.write(fd, b"ab")
        assert acme.usage() == acme.recount() == {"inodes": 1, "bytes": 10}
        acme.write(fd, b"cdefghijkl")
        acme.close(fd)
        assert acme.usage() == acme.recount() == {"inodes": 1, "bytes": 12}

    def test_open_creating_a_file_charges_its_inode(self, acme):
        fd = acme.open("/new.txt", "w")
        acme.write(fd, b"data")
        acme.close(fd)
        assert acme.usage() == acme.recount() == {"inodes": 1, "bytes": 4}

    def test_host_writes_under_a_tenant_root_are_charged(self, hac, acme):
        hac.write_file("/tenants/acme/h.txt", b"from the host")
        assert acme.usage() == {"inodes": 1, "bytes": 13}
        with pytest.raises(QuotaExceeded):
            hac.write_file("/tenants/acme/big.txt", b"x" * 2000)
        assert not hac.exists("/tenants/acme/big.txt")
        assert acme.usage() == acme.recount()

    def test_renames_across_a_tenant_boundary(self, hac, acme, buyco):
        acme.makedirs("/d")
        acme.write_file("/d/f.txt", b"12345")
        with pytest.raises(CrossDevice):
            hac.rename("/tenants/acme/d", "/tenants/buyco/d")
        assert acme.isfile("/d/f.txt") and not buyco.exists("/d")
        # a file moves its charge with it
        hac.rename("/tenants/acme/d/f.txt", "/tenants/buyco/f.txt")
        assert acme.usage() == acme.recount() == {"inodes": 1, "bytes": 0}
        assert buyco.usage() == buyco.recount() == {"inodes": 1, "bytes": 5}

    def test_a_mounted_file_system_is_not_charged(self, hac, acme):
        acme.mkdir("/m")
        hac.mount("/tenants/acme/m", FileSystem(name="other"))
        acme.write_file("/m/f.txt", b"on another device")
        acme.write_file("/g.txt", b"12")
        assert acme.usage() == acme.recount() == {"inodes": 2, "bytes": 2}

    def test_makedirs_past_the_inode_budget_keeps_the_ledger_exact(self,
                                                                   hac):
        t = hac.tenants.create("tiny", quota=QuotaSpec(max_inodes=2))
        with pytest.raises(QuotaExceeded):
            t.makedirs("/a/b/c")
        assert t.usage() == t.recount()

    def test_rollback_undo_is_never_refused(self, hac):
        t = hac.tenants.create("full", quota=QuotaSpec(max_inodes=4))
        t.mkdir("/d")
        t.mkdir("/e")
        hac.tenants.set_quota("full", QuotaSpec(max_inodes=1))
        device = hac.fs.device
        # the rmdir's wal record lands, its first structure write fails:
        # the in-process rollback recreates /d over the lowered budget
        device.set_fault_plan(FaultPlan(
            enospc_at={device.record_write_index + 1}))
        with pytest.raises(NoSpace):
            t.rmdir("/d")
        device.clear_faults()
        assert t.isdir("/d")
        assert t.usage() == t.recount() == {"inodes": 2, "bytes": 0}

    def test_set_quota_keeps_usage(self, hac, acme):
        acme.write_file("/f.txt", b"1234")
        hac.tenants.set_quota("acme", QuotaSpec(max_bytes=4))
        with pytest.raises(QuotaExceeded):
            acme.write_file("/g.txt", b"5")


class TestAttribution:
    def test_journal_intents_carry_the_tenant_id(self, hac, acme,
                                                 monkeypatch):
        opened = []
        orig = hac.journal.begin

        def spy(op, payload):
            intent = orig(op, payload)
            if intent is not None:
                opened.append(intent)
            return intent

        monkeypatch.setattr(hac.journal, "begin", spy)
        acme.write_file("/f.txt", b"fingerprint")
        assert any(i.payload.get("tenant") == "acme" for i in opened), \
            "no journal intent was stamped with the tenant id"

    def test_spans_carry_the_tenant_tag(self, hac, acme):
        hac.obs.trace.enable()
        acme.write_file("/f.txt", b"fingerprint")
        spans = [s for s in hac.obs.trace.spans()
                 if s.name.startswith("tenant.")
                 and s.attrs.get("tenant") == "acme"]
        assert spans

    def test_scheduler_buckets_by_tenant(self, hac, acme, buyco):
        hac.maintenance.set_mode("batched")
        acme.write_file("/a.txt", b"fingerprint a")
        buyco.write_file("/b.txt", b"fingerprint b")
        assert hac.maintenance.pending_by_tenant() == {"acme": 1, "buyco": 1}
        assert hac.maintenance.status()["tenants"] == {"acme": 1, "buyco": 1}

    def test_health_reports_the_tenant_section(self, hac, acme):
        acme.write_file("/f.txt", b"12345")
        row = hac.health()["tenants"]["acme"]
        assert row["root"] == "/tenants/acme"
        assert row["usage"] == {"inodes": 1, "bytes": 5}
        assert row["quota"]["max_bytes"] == 1000

    def test_tenant_health_names_no_other_tenant(self, hac, acme, buyco):
        buyco.write_file("/b.txt", b"neighbour data")
        report = acme.health()
        assert "tenants" not in report
        assert "buyco" not in repr(report)
        assert report["tenant"]["usage"] == acme.usage()

    def test_tenant_health_filters_directories(self, hac, acme, buyco):
        report = acme.health()
        assert report["tenant"]["name"] == "acme"
        assert "buyco" not in str(report.get("directories", {}))


class TestIsolationAndScoping:
    def test_glimpse_sees_only_the_tenant_subtree(self, hac, acme, buyco):
        acme.write_file("/a.txt", b"fingerprint ridges alpha")
        buyco.write_file("/b.txt", b"fingerprint ridges beta")
        hac.makedirs("/shared")
        hac.write_file("/shared/c.txt", b"fingerprint ridges host")
        hac.ssync("/")
        assert acme.glimpse("fingerprint") == ["/a.txt"]
        assert buyco.glimpse("fingerprint") == ["/b.txt"]

    def test_snapshot_glimpse_is_scoped_too(self, hac, acme, buyco):
        acme.write_file("/a.txt", b"fingerprint alpha")
        buyco.write_file("/b.txt", b"fingerprint beta")
        acme.barrier()
        buyco.barrier()
        hac.maintenance.publish()
        assert acme.glimpse("fingerprint",
                            consistency="snapshot") == ["/a.txt"]

    def test_semantic_dirs_link_only_tenant_docs(self, hac, acme, buyco):
        acme.write_file("/a.txt", b"fingerprint ridge alpha")
        buyco.write_file("/b.txt", b"fingerprint ridge beta")
        acme.smkdir("/q", "fingerprint")
        acme.barrier()
        assert sorted(acme.links("/q")) == ["a.txt"]

    def test_cross_tenant_cascades_are_pruned(self, hac, acme, buyco):
        acme.write_file("/a.txt", b"fingerprint alpha")
        buyco.smkdir("/q", "fingerprint")
        buyco.barrier()
        before = hac.counters.get("consistency.reevaluations")
        acme.write_file("/a2.txt", b"fingerprint alpha two")
        acme.barrier()
        assert hac.counters.get("consistency.cross_tenant_skips") >= 1
        # buyco's directory did not re-evaluate on acme's write
        assert hac.counters.get("consistency.reevaluations") == before

    def test_host_semdirs_still_see_tenant_writes(self, hac, acme):
        hac.smkdir("/all", "fingerprint")
        acme.write_file("/a.txt", b"fingerprint alpha")
        acme.barrier()
        hac.ssync("/all")
        assert "a.txt" in hac.links("/all")


class TestRestore:
    def test_tenants_survive_a_reopen(self, hac, acme):
        acme.write_file("/f.txt", b"fingerprint data")
        acme.barrier()
        hac.reindex("/")  # seals and persists the segment list
        again = HacFileSystem.restore(hac.fs)
        t = again.tenants.get("acme")
        assert t.ledger.spec.max_bytes == 1000
        assert t.ledger.usage() == {"inodes": 1, "bytes": 16}
        assert t.read_file("/f.txt") == b"fingerprint data"
        assert t.glimpse("fingerprint") == ["/f.txt"]

    def test_restored_tenants_keep_enforcing_quotas(self, hac):
        t = hac.tenants.create("tight", quota=QuotaSpec(max_bytes=10))
        t.write_file("/f.txt", b"123456")
        again = HacFileSystem.restore(hac.fs)
        with pytest.raises(QuotaExceeded):
            again.tenants.get("tight").write_file("/g.txt", b"12345")


class TestFsck:
    def test_clean_world_has_no_tenant_findings(self, hac, acme):
        acme.write_file("/f.txt", b"fingerprint")
        assert [f for f in hac.fsck() if f.kind.startswith("tenant-")] == []

    def test_ledger_drift_surfaces_and_repair_adopts_the_recount(self, hac,
                                                                 acme):
        acme.write_file("/f.txt", b"fingerprint")
        acme.ledger.commit(3, 100)  # a ledger the tree no longer backs
        drift = [f for f in hac.fsck() if f.kind == "tenant-usage-drift"]
        assert len(drift) == 1 and drift[0].severity == "warn"
        hac.fsck(repair=True)
        assert [f for f in hac.fsck()
                if f.kind == "tenant-usage-drift"] == []
        assert acme.ledger.usage() == {"inodes": 1, "bytes": 11}
