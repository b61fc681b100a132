"""APX002 good fixture: versioned and table-free cache keys."""


class Planner:
    def __init__(self, memo):
        self._plan_cache = {}
        self._name_memo = {}
        self._plan_memo = memo

    def lookup(self, table, name):
        return self._plan_cache.get((table.version_token, name))

    def store(self, table, name, plan):
        self._plan_cache[(table.version_token, name)] = plan

    def structural(self, name, plan):
        self._name_memo[name] = plan  # no table involved: out of scope

    def stamped(self, snapshot, name):
        return self._plan_cache.get((snapshot.domain_stamp, name))

    def tiered(self, table, name, build):
        return self._plan_memo.lookup((table.version_token, name), build)
